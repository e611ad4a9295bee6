package game

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"tigatest/internal/dbm"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/symbolic"
	"tigatest/internal/tctl"
)

// compiledCases builds every shipped model × strict/cooperative cell whose
// game is winnable. The LEP instance uses 2 nodes to keep the graphs small.
func compiledCases(t testing.TB) []struct {
	name string
	st   *Strategy
	cs   *CompiledStrategy
} {
	var out []struct {
		name string
		st   *Strategy
		cs   *CompiledStrategy
	}
	for _, mn := range []string{"smartlight", "traingate", "lep"} {
		sys, env, _, goal, err := models.ByName(mn, 2)
		if err != nil {
			t.Fatal(err)
		}
		f := tctl.MustParse(env, goal)
		for _, coop := range []bool{false, true} {
			mode := "strict"
			if coop {
				mode = "coop"
			}
			res, err := Solve(sys, f, Options{Workers: 1, PropagationWorkers: 1, TreatAllControllable: coop})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Winnable {
				continue
			}
			cs, err := res.Strategy.Compile()
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", mn, mode, err)
			}
			out = append(out, struct {
				name string
				st   *Strategy
				cs   *CompiledStrategy
			}{mn + "/" + mode, res.Strategy, cs})
		}
	}
	return out
}

// zonePoints derives scaled valuations inside z: the zone's minimal corner
// plus delayed variants (interior midpoint and the latest point), each
// membership-checked so strict bounds never admit a point off by one.
func zonePoints(z *dbm.DBM, scale int64) [][]int64 {
	dim := z.Dim()
	base := make([]int64, dim-1)
	for i := 1; i < dim; i++ {
		lb := z.At(0, i)
		if lb == dbm.Infinity {
			continue
		}
		v := -int64(lb.Value()) * scale
		if lb.Strict() {
			v++
		}
		if v < 0 {
			v = 0
		}
		base[i-1] = v
	}
	if !z.ContainsPoint(base, scale) {
		return nil
	}
	pts := [][]int64{base}
	if iv, ok := z.DelayInterval(base, scale); ok {
		lo := iv.Lo
		if iv.LoStrict {
			lo++
		}
		var delays []int64
		if iv.Unbounded {
			delays = append(delays, lo+1, lo+scale)
		} else {
			hi := iv.Hi
			if iv.HiStrict {
				hi--
			}
			if hi > lo {
				delays = append(delays, (lo+hi)/2, hi)
			}
		}
		for _, d := range delays {
			if d <= 0 {
				continue
			}
			p := make([]int64, len(base))
			for i := range p {
				p[i] = base[i] + d
			}
			if z.ContainsPoint(p, scale) {
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// nodePoints samples in-region valuations of one strategy node: points of
// every winning-delta zone and every goal zone.
func nodePoints(n *node, scale int64) [][]int64 {
	var pts [][]int64
	for _, d := range n.deltas {
		for _, z := range d.fed.Zones() {
			pts = append(pts, zonePoints(z, scale)...)
		}
	}
	if n.goal != nil {
		for _, z := range n.goal.Zones() {
			pts = append(pts, zonePoints(z, scale)...)
		}
	}
	return pts
}

func transSig(t *symbolic.Transition) string {
	if t == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%d:%s", t.Chan, t.Label)
}

func describeMove(mv Move, err error) string {
	if err != nil {
		return "err: " + err.Error()
	}
	return fmt.Sprintf("kind=%d trans=%s target=%d wait=%d hoped=%s",
		mv.Kind, transSig(mv.Trans), mv.Target, mv.WaitTicks, transSig(mv.Hoped))
}

// TestCompiledMatchesInterpreted is the differential fuzz gate: at every
// sampled in-region valuation of every node, across every shipped model and
// game mode, the compiled strategy must return the same stamp, goal
// membership, move (kind, transition, wait ticks, hoped output) and error
// as the interpreted one — for the automatic bound and for every
// stamp-level boundary bound.
func TestCompiledMatchesInterpreted(t *testing.T) {
	for _, c := range compiledCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if c.st.NumNodes() != c.cs.NumNodes() {
				t.Fatalf("node counts differ: %d vs %d", c.st.NumNodes(), c.cs.NumNodes())
			}
			points := 0
			for id := 0; id < c.st.NumNodes(); id++ {
				n := c.st.nodes[id]
				for _, p := range nodePoints(n, tick) {
					points++
					si, sc := c.st.StampAt(id, p, tick), c.cs.StampAt(id, p, tick)
					if si != sc {
						t.Fatalf("node %d %v: stamp %d vs %d", id, p, si, sc)
					}
					if gi, gc := c.st.InGoal(id, p, tick), c.cs.InGoal(id, p, tick); gi != gc {
						t.Fatalf("node %d %v: InGoal %v vs %v", id, p, gi, gc)
					}
					if si < 0 {
						continue
					}
					bounds := []int{0, si + 1}
					for _, d := range n.deltas {
						bounds = append(bounds, d.stamp, d.stamp+1)
					}
					for _, bound := range bounds {
						mi, errI := c.st.MoveAt(id, p, tick, bound)
						mc, errC := c.cs.MoveAt(id, p, tick, bound)
						di, dc := describeMove(mi, errI), describeMove(mc, errC)
						if di != dc {
							t.Fatalf("node %d %v bound %d:\n  interpreted: %s\n  compiled:    %s",
								id, p, bound, di, dc)
						}
					}
					for i := range n.succs {
						ch := n.succs[i].trans.Chan
						ti, tgtI, errI := c.st.FollowTransition(id, ch, p, tick)
						tc, tgtC, errC := c.cs.FollowTransition(id, ch, p, tick)
						if (errI == nil) != (errC == nil) || tgtI != tgtC || transSig(ti) != transSig(tc) {
							t.Fatalf("node %d %v chan %d: follow (%s,%d,%v) vs (%s,%d,%v)",
								id, p, ch, transSig(ti), tgtI, errI, transSig(tc), tgtC, errC)
						}
					}
				}
			}
			if points == 0 {
				t.Fatal("no in-region points sampled (degenerate case)")
			}
			t.Logf("%s: %d sampled points agree", c.name, points)
		})
	}
}

// TestCompiledEncodeDecodeRoundTrip pins the wire format: encoding is
// deterministic, decode(encode(cs)) re-encodes to the identical bytes, and
// the revived strategy consults identically to the in-process compilation
// (zone order is preserved, so even wait-tick tie-breaks survive the wire).
func TestCompiledEncodeDecodeRoundTrip(t *testing.T) {
	for _, c := range compiledCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			data := c.cs.Encode()
			if again := c.cs.Encode(); !bytes.Equal(data, again) {
				t.Fatal("Encode is not deterministic")
			}
			dec, err := Decode(c.st.System(), data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !bytes.Equal(data, dec.Encode()) {
				t.Fatal("decode→re-encode bytes differ")
			}
			if dec.Checksum() != c.cs.Checksum() {
				t.Fatalf("checksums differ: %016x vs %016x", dec.Checksum(), c.cs.Checksum())
			}
			if dec.Cooperative() != c.cs.Cooperative() || dec.Purpose() != c.cs.Purpose() {
				t.Fatal("metadata differs after round-trip")
			}
			for id := 0; id < c.st.NumNodes(); id++ {
				for _, p := range nodePoints(c.st.nodes[id], tick) {
					bound := c.cs.StampAt(id, p, tick)
					if bound < 0 {
						continue
					}
					mc, errC := c.cs.MoveAt(id, p, tick, 0)
					md, errD := dec.MoveAt(id, p, tick, 0)
					if describeMove(mc, errC) != describeMove(md, errD) {
						t.Fatalf("node %d %v: compiled %s vs decoded %s",
							id, p, describeMove(mc, errC), describeMove(md, errD))
					}
				}
			}
		})
	}
}

// TestDecodeRejectsCorruption: flipping any byte of the stream must be
// caught by the self-checksum (or the structural validation behind it).
func TestDecodeRejectsCorruption(t *testing.T) {
	cases := compiledCases(t)
	if len(cases) == 0 {
		t.Fatal("no cases")
	}
	c := cases[0]
	data := c.cs.Encode()
	for _, pos := range []int{0, 4, 8, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x40
		if _, err := Decode(c.st.System(), bad); err == nil {
			t.Fatalf("corruption at byte %d not rejected", pos)
		}
	}
	if _, err := Decode(c.st.System(), data[:len(data)-3]); err == nil {
		t.Fatal("truncation not rejected")
	}
	if _, err := Decode(c.st.System(), append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing garbage not rejected")
	}
}

// TestMaxConstantMatchesCompiled pins Consultant.MaxConstant: the
// interpreted strategy reports the largest constant of its compiled
// tables, a decoded strategy the same, and none is below the extrapolation
// maxima. Execution clamps the tester's valuation there, so interpreted
// and compiled runs detect repeating closed loops at the same step.
func TestMaxConstantMatchesCompiled(t *testing.T) {
	for _, c := range compiledCases(t) {
		dec, err := Decode(c.st.System(), c.cs.Encode())
		if err != nil {
			t.Fatal(err)
		}
		want := c.cs.MaxConstant()
		if got := c.st.MaxConstant(); got != want {
			t.Errorf("%s: interpreted MaxConstant %d, compiled %d", c.name, got, want)
		}
		if got := dec.MaxConstant(); got != want {
			t.Errorf("%s: decoded MaxConstant %d, compiled %d", c.name, got, want)
		}
		if m := slices.Max(c.st.ex.Max); want < m {
			t.Errorf("%s: MaxConstant %d below the extrapolation maximum %d", c.name, want, m)
		}
	}
}

// windowGame builds A --go(controllable, x>1, x<2 or x<=2)--> B: the
// tester must wait into the guard's window, then take go.
func windowGame(hi func(clock, k int) model.ClockConstraint) *model.System {
	s := model.NewSystem("window")
	x := s.AddClock("x")
	p := s.AddProcess("Plant")
	a := p.AddLocation(model.Location{Name: "A"})
	b := p.AddLocation(model.Location{Name: "B"})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: b, Dir: model.NoSync, Kind: model.Controllable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GT(x, 1), hi(x, 2)}},
	})
	return s
}

// TestWaitScanLandsInRegion checks that every wait the scan returns lands
// inside the region it waited for, so the strategy acts (or is at the goal)
// on reconsulting there. A strict upper bound is the edge case: at scale 1
// no whole tick lies in x∈(1,2), so the scan must answer "no progress"
// rather than wait onto x=2; with x<=2 it waits two ticks and acts.
func TestWaitScanLandsInRegion(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hi     func(clock, k int) model.ClockConstraint
		scale1 bool // a whole-tick wait reaches the window at scale 1
	}{
		{"strict", model.LT, false},
		{"weak", model.LE, true},
	} {
		res := solveStr(t, windowGame(tc.hi), "control: A<> Plant.B", Options{})
		if !res.Winnable {
			t.Fatalf("%s: window game must be winnable", tc.name)
		}
		cs, err := res.CompiledStrategy()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			c    Consultant
		}{{"compiled", cs}, {"interpreted", Reference(res.Strategy)}} {
			init := c.c.InitialNode()
			for scale := int64(1); scale <= 4; scale++ {
				for x := int64(0); x <= 2*scale; x++ {
					ctx := fmt.Sprintf("%s/%s scale %d x=%d", tc.name, c.name, scale, x)
					mv, err := c.c.MoveAt(init, []int64{x}, scale, 0)
					if scale == 1 && x == 0 && !tc.scale1 {
						if err == nil {
							t.Fatalf("%s: no whole tick lies in the window, got %v", ctx, mv)
						}
						continue
					}
					if err != nil || mv.Kind != MoveWait {
						continue
					}
					land := x + mv.WaitTicks
					next, err := c.c.MoveAt(init, []int64{land}, scale, 0)
					if err != nil || next.Kind != MoveAction {
						t.Fatalf("%s: waited %d ticks onto x=%d/%d, outside the window: %v, %v",
							ctx, mv.WaitTicks, land, scale, next, err)
					}
				}
			}
		}
	}
}
