// Compiled strategies: per-node decision tables with O(1) consultation.
//
// Consulting a Strategy directly would derive its decision regions on the
// fly — every consultation walking PredThroughEdge and federation
// subtraction (the package tests keep that interpreted consultant as
// their reference). But a memoryless winning strategy is a static
// zone-partition → move map, and those regions depend on the concrete
// state only through (node id, stamp bound), both drawn from small finite
// sets: per-node delta stamps are strictly ascending, so
// winBefore(target, bound) is a prefix union of the target's deltas,
// selected purely by how many stamps lie below the bound. Compilation
// therefore enumerates, per node,
//
//   - the goal region and the winning deltas (for InGoal / StampAt),
//   - per successor, the action region at every prefix level of the
//     target's stamps (level = #{stamps < bound}, found by a linear scan),
//   - the forced-move region on every interval of the sorted opponent-target
//     stamp thresholds (piecewise-constant in the bound),
//
// after which CompiledStrategy.MoveAt is pure point-in-zone lookups over
// prebuilt DBM rows: no predecessor operators, no federation allocation, no
// subtraction on the hot path. Regions are built by the same code the
// reference runs, so zone decompositions — and with them wait-tick
// minimization and cooperative-hope tie-breaks — are identical, making the
// compiled consultant decision-equivalent, not merely verdict-equivalent.
//
// A node's rows are built once, when a consultation first reaches it: the
// online tester of Algorithm 3.1 visits a handful of the graph's nodes. A
// per-node ready flag guards them, so concurrent consultations share one
// build and an already built node costs one atomic load.

package game

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tigatest/internal/dbm"
	"tigatest/internal/model"
	"tigatest/internal/symbolic"
)

// Consultant is the execution-facing strategy interface: everything a test
// driver (internal/texec) needs to play a synthesized strategy against an
// implementation. Production runs consult a *CompiledStrategy; the
// interface exists so tests can substitute the interpreted reference for
// the compiled tables and compare whole runs.
type Consultant interface {
	// System returns the specification the strategy was synthesized for.
	System() *model.System
	// Cooperative reports whether the strategy relies on helpful outputs.
	Cooperative() bool
	// InitialNode returns the id of the initial symbolic state.
	InitialNode() int
	// InGoal reports whether the valuation satisfies the purpose at the node.
	InGoal(id int, val []int64, scale int64) bool
	// StampAt returns the stamp at which the scaled valuation entered the
	// node's winning set, or -1 when it is not winning.
	StampAt(id int, val []int64, scale int64) int
	// MoveAt computes the strategy decision at a concrete scaled valuation.
	MoveAt(id int, val []int64, scale int64, bound int) (Move, error)
	// FollowTransition resolves the successor after a transition on chanIdx.
	FollowTransition(id int, chanIdx int, val []int64, scale int64) (*symbolic.Transition, int, error)
	// MaxConstant bounds the constants the methods above compare a clock
	// valuation against: the purpose's clock atoms included, so the
	// model's constants alone may be smaller.
	MaxConstant() int
}

var _ Consultant = (*CompiledStrategy)(nil)

// probe is a flattened membership test for one federation: per zone, only
// the finite off-diagonal constraints, laid out contiguously. A consultation
// is then a tight scan over small arrays — no DBM indexing, no infinity
// checks, no closures — which is what makes compiled MoveAt allocation-free
// and an order of magnitude faster than deriving regions. The semantics are
// exactly Federation.ContainsPoint: a point is in the federation iff some
// zone's constraints all hold.
type probe struct {
	cons []probeCon
	zoff []int32     // zone z covers cons[zoff[z]:zoff[z+1]]
	dz   []delayZone // delay view, one per zone, in zone order
}

// probeCon is one finite constraint "x_i - x_j ~ b" (x_0 = 0).
type probeCon struct {
	i, j int16
	b    dbm.Bound
}

// axisCon is one finite bound against the reference clock.
type axisCon struct {
	i int16
	b dbm.Bound
}

// delayZone is the delay view of one zone, split the way DelayInterval
// consumes it: the delay-invariant difference constraints between real
// clocks, then the upper (x_i ~ v) and lower (-x_i ~ v) reference bounds
// that move under delay.
type delayZone struct {
	diff []probeCon
	ups  []axisCon
	lows []axisCon
}

// makeProbe flattens f in two passes: the first counts the finite
// constraints by kind, so the second fills one backing array shared by cons
// and every zone's diff list and one shared by every zone's ups and lows.
// Every row of every built node is flattened, so per-constraint slice
// growth here would be the build's allocation hot spot.
func makeProbe(f *dbm.Federation) probe {
	var p probe
	if f == nil {
		return p
	}
	zs := f.Zones()
	nDiff, nAxis := 0, 0
	for _, z := range zs {
		dim := z.Dim()
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				if i == j || z.At(i, j) == dbm.Infinity {
					continue
				}
				if i > 0 && j > 0 {
					nDiff++
				} else {
					nAxis++
				}
			}
		}
	}
	var diffs []probeCon
	if n := nDiff + nAxis; n > 0 {
		buf := make([]probeCon, n+nDiff)
		p.cons, diffs = buf[:0:n], buf[n:n]
	}
	axes := make([]axisCon, 0, nAxis)
	p.zoff = make([]int32, 1, len(zs)+1)
	p.dz = make([]delayZone, len(zs))
	for zi, z := range zs {
		dim := z.Dim()
		dz := &p.dz[zi]
		d0 := len(diffs)
		// Row-major order interleaves the kinds, so the reference bounds
		// are swept separately below: column 0 gives the ups, row 0 the
		// lows, each contiguous in axes and in the row-major scan's order.
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				if i == j {
					continue
				}
				b := z.At(i, j)
				if b == dbm.Infinity {
					continue
				}
				p.cons = append(p.cons, probeCon{int16(i), int16(j), b})
				if i > 0 && j > 0 {
					diffs = append(diffs, probeCon{int16(i), int16(j), b})
				}
			}
		}
		dz.diff = diffs[d0:len(diffs):len(diffs)]
		u0 := len(axes)
		for i := 1; i < dim; i++ {
			if b := z.At(i, 0); b != dbm.Infinity {
				axes = append(axes, axisCon{int16(i), b})
			}
		}
		dz.ups = axes[u0:len(axes):len(axes)]
		l0 := len(axes)
		for j := 1; j < dim; j++ {
			if b := z.At(0, j); b != dbm.Infinity {
				axes = append(axes, axisCon{int16(j), b})
			}
		}
		dz.lows = axes[l0:len(axes):len(axes)]
		p.zoff = append(p.zoff, int32(len(p.cons)))
	}
	return p
}

// interval mirrors DBM.DelayInterval over the flattened zone: the set of
// delays t >= 0 with val+t in the zone, ok=false when empty.
func (dz *delayZone) interval(val []int64, scale int64) (dbm.Interval, bool) {
	for _, c := range dz.diff {
		d := val[c.i-1] - val[c.j-1]
		limit := int64(c.b>>1) * scale
		if d > limit || (d == limit && c.b&1 == 0) {
			return dbm.Interval{}, false
		}
	}
	iv := dbm.Interval{Lo: 0, Unbounded: true}
	for _, u := range dz.ups {
		lim := int64(u.b>>1)*scale - val[u.i-1]
		strict := u.b&1 == 0
		if iv.Unbounded || lim < iv.Hi || (lim == iv.Hi && strict && !iv.HiStrict) {
			iv.Hi, iv.HiStrict, iv.Unbounded = lim, strict, false
		}
	}
	for _, l := range dz.lows {
		lim := -int64(l.b>>1)*scale - val[l.i-1]
		strict := l.b&1 == 0
		if lim > iv.Lo || (lim == iv.Lo && strict && !iv.LoStrict) {
			iv.Lo, iv.LoStrict = lim, strict
		}
	}
	if iv.Lo < 0 {
		iv.Lo, iv.LoStrict = 0, false
	}
	if !iv.Unbounded {
		if iv.Hi < iv.Lo {
			return dbm.Interval{}, false
		}
		if iv.Hi == iv.Lo && (iv.HiStrict || iv.LoStrict) {
			return dbm.Interval{}, false
		}
	}
	return iv, true
}

// maxUsefulWait mirrors the reference's maxUsefulWait over the flattened
// zones: how long the valuation may wait while remaining in the region.
func (p *probe) maxUsefulWait(val []int64, scale int64) int64 {
	var best int64
	for z := range p.dz {
		iv, ok := p.dz[z].interval(val, scale)
		if !ok || iv.Lo > 0 || iv.LoStrict {
			continue
		}
		if iv.Unbounded {
			return scale * 1 << 20 // effectively forever
		}
		hi := iv.Hi
		if iv.HiStrict && hi > 0 {
			hi--
		}
		if hi > best {
			best = hi
		}
	}
	return best
}

func (p *probe) contains(val []int64, scale int64) bool {
	for z := 0; z+1 < len(p.zoff); z++ {
		ok := true
		for _, c := range p.cons[p.zoff[z]:p.zoff[z+1]] {
			var d int64
			if c.i > 0 {
				d = val[c.i-1]
			}
			if c.j > 0 {
				d -= val[c.j-1]
			}
			limit := int64(c.b>>1) * scale
			if d > limit || (d == limit && c.b&1 == 0) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// compiledDelta is one stamped growth of a node's winning set.
type compiledDelta struct {
	stamp int
	fed   *dbm.Federation
	pr    probe
}

// compiledSucc is one successor row of a compiled node. regions[l] is the
// action region when l of the target's stamps lie strictly below the
// consultation bound (l = 0 is the empty region: no winning prefix yet).
type compiledSucc struct {
	trans   *symbolic.Transition
	target  int
	ctrl    bool              // controllable transition
	usable  bool              // consulted for moves (controllable, or any in coop mode)
	stamps  []int             // the target's delta stamps, strictly ascending
	regions []*dbm.Federation // len(stamps)+1 when usable, nil otherwise
	prs     []probe           // membership probes parallel to regions
}

// levelAt selects the region index for the bound: the prefix level is the
// number of target stamps strictly below it. Stamp lists are tiny (one
// entry per winning delta of the target), so a linear scan beats binary
// search on the consultation hot path.
func (sc *compiledSucc) levelAt(bound int) int {
	l := 0
	for l < len(sc.stamps) && sc.stamps[l] < bound {
		l++
	}
	return l
}

// compiledNode is one decision row of the table. Its fields are written
// once, by buildNode or Decode, before ready is set.
type compiledNode struct {
	ready  atomic.Bool
	goal   *dbm.Federation
	goalPr probe
	deltas []compiledDelta
	succs  []compiledSucc
	// forced is piecewise-constant in the bound over the sorted unique
	// opponent-target stamps: forcedRegions[i] applies when i thresholds lie
	// strictly below the bound.
	forcedThresholds []int
	forcedRegions    []*dbm.Federation
	forcedPrs        []probe
}

func (n *compiledNode) forcedLevel(bound int) int {
	l := 0
	for l < len(n.forcedThresholds) && n.forcedThresholds[l] < bound {
		l++
	}
	return l
}

// CompiledStrategy is a strategy compiled to flat per-node decision tables.
// It is safe for any number of concurrent readers, like the Strategy it
// was compiled from — but a consultation is pure point-in-zone
// lookups over the node's rows, built on the node's first consultation.
// Build one with Strategy.Compile (or Result.CompiledStrategy, which
// compiles once and shares), revive a serialized one with Decode.
type CompiledStrategy struct {
	sys     *model.System
	purpose string
	coop    bool
	dim     int
	nodes   []compiledNode
	// src is the strategy the rows are built from; Decode builds every
	// row and leaves it nil.
	src *Strategy

	// mu serializes node builds and guards maxConst and builds; once
	// complete is set nothing writes them.
	mu       sync.Mutex
	complete atomic.Bool // every node is built
	// maxConst is the largest constant of the built rows: every probe and
	// transition guard (see MaxConstant).
	maxConst int
	builds   int // nodes built by buildNode
	// buildNanos sums the wall-clock time spent building rows.
	buildNanos atomic.Int64

	enc encodeCache
}

// CompileDuration returns the wall-clock time spent building rows so
// far, summed over node builds: zero right after Compile, the whole
// table's cost once Encode or MaxConstant has built every node, and zero
// for decoded strategies.
func (cs *CompiledStrategy) CompileDuration() time.Duration {
	return time.Duration(cs.buildNanos.Load())
}

// System returns the specification the strategy was synthesized for.
func (cs *CompiledStrategy) System() *model.System { return cs.sys }

// Purpose returns the canonical rendering of the test purpose.
func (cs *CompiledStrategy) Purpose() string { return cs.purpose }

// Cooperative reports whether the strategy relies on helpful plant outputs.
func (cs *CompiledStrategy) Cooperative() bool { return cs.coop }

// NumNodes returns the number of symbolic states in the strategy graph.
func (cs *CompiledStrategy) NumNodes() int { return len(cs.nodes) }

// InitialNode returns the id of the initial symbolic state.
func (cs *CompiledStrategy) InitialNode() int { return 0 }

// MaxConstant returns the largest constant in the decision tables: the
// probes and the transition guards are all a consultation compares a
// valuation against. It builds every node not built yet.
func (cs *CompiledStrategy) MaxConstant() int {
	cs.forceAll()
	return cs.maxConst
}

// StampAt returns the stamp at which the scaled valuation entered the
// node's winning set, or -1 when it is not winning.
func (cs *CompiledStrategy) StampAt(id int, val []int64, scale int64) int {
	n := cs.node(id)
	for i := range n.deltas {
		d := &n.deltas[i]
		if d.pr.contains(val, scale) {
			return d.stamp
		}
	}
	return -1
}

// InGoal reports whether the valuation satisfies the test purpose at the
// node.
func (cs *CompiledStrategy) InGoal(id int, val []int64, scale int64) bool {
	return cs.node(id).goalPr.contains(val, scale)
}

// MoveAt computes the strategy decision at a concrete scaled valuation
// inside node id, replaying the reference's decision order — goal, the
// controllable-then-hoped immediate passes, the forced boundary, the
// wait-scan — over the precompiled rows. bound is the arrival stamp (pass
// 0 on entry to a node to derive it automatically).
func (cs *CompiledStrategy) MoveAt(id int, val []int64, scale int64, bound int) (Move, error) {
	n := cs.node(id)
	if n.goalPr.contains(val, scale) {
		return Move{Kind: MoveGoal}, nil
	}
	if bound <= 0 {
		bound = cs.StampAt(id, val, scale)
		if bound < 0 {
			return Move{Kind: MoveNone}, fmt.Errorf("game: state outside winning region (node %d, %v)", id, val)
		}
	}

	for pass := 0; pass < 2; pass++ {
		for i := range n.succs {
			sc := &n.succs[i]
			if !sc.usable || (pass == 0) != sc.ctrl {
				continue
			}
			lv := sc.levelAt(bound)
			if sc.prs[lv].contains(val, scale) {
				if sc.ctrl {
					return Move{Kind: MoveAction, Trans: sc.trans, Target: sc.target}, nil
				}
				wait := sc.prs[lv].maxUsefulWait(val, scale)
				return Move{Kind: MoveWait, WaitTicks: wait, Hoped: sc.trans}, nil
			}
		}
	}

	lf := n.forcedLevel(bound)
	if n.forcedPrs[lf].contains(val, scale) {
		return Move{Kind: MoveWait, WaitTicks: 1}, nil
	}

	best := int64(-1)
	var hoped *symbolic.Transition
	consider := func(pr *probe, h *symbolic.Transition) {
		for z := range pr.dz {
			iv, ok := pr.dz[z].interval(val, scale)
			if !ok {
				continue
			}
			d := iv.Lo
			if iv.LoStrict {
				d++
			}
			if d <= 0 {
				d = 1 // must make progress; zero handled above
			}
			if iv.Unbounded || d < iv.Hi || (d == iv.Hi && !iv.HiStrict) {
				if best < 0 || d < best {
					best = d
					hoped = h
				}
			}
		}
	}
	consider(&n.goalPr, nil)
	consider(&n.forcedPrs[lf], nil)
	for i := range n.succs {
		sc := &n.succs[i]
		if !sc.usable {
			continue
		}
		var h *symbolic.Transition
		if !sc.ctrl {
			h = sc.trans
		}
		consider(&sc.prs[sc.levelAt(bound)], h)
	}
	if best < 0 {
		return Move{Kind: MoveNone}, fmt.Errorf("game: no progress possible from node %d at %v (bound %d)", id, val, bound)
	}
	return Move{Kind: MoveWait, WaitTicks: best, Hoped: hoped}, nil
}

// FollowTransition resolves the successor node after observing/taking a
// transition on channel chanIdx from node id at the scaled valuation val
// (the pre-transition point).
func (cs *CompiledStrategy) FollowTransition(id int, chanIdx int, val []int64, scale int64) (*symbolic.Transition, int, error) {
	n := cs.node(id)
	for i := range n.succs {
		sc := &n.succs[i]
		if sc.trans.Chan != chanIdx {
			continue
		}
		if transGuardHolds(sc.trans, val, scale) {
			return sc.trans, sc.target, nil
		}
	}
	name := "?"
	if chanIdx >= 0 && chanIdx < len(cs.sys.Channels) {
		name = cs.sys.Channels[chanIdx].Name
	}
	return nil, 0, fmt.Errorf("game: no enabled transition on %s from node %d at %v", name, id, val)
}
