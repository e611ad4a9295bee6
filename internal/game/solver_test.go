package game

import (
	"math/rand"
	"testing"
	"time"

	"tigatest/internal/model"
	"tigatest/internal/tctl"
)

const tick = int64(240) // ticks per model time unit in these tests

// mkEnv wraps a system in a parse environment.
func mkEnv(s *model.System) *tctl.ParseEnv {
	return &tctl.ParseEnv{Sys: s, Ranges: map[string]tctl.Range{}}
}

// oneStep builds: A --go(controllable, x>=2, x<=3)--> Goal.
func oneStep() *model.System {
	s := model.NewSystem("onestep")
	x := s.AddClock("x")
	p := s.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A"})
	g := p.AddLocation(model.Location{Name: "Goal"})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: g, Dir: model.NoSync, Kind: model.Controllable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 2), model.LE(x, 3)}},
	})
	return s
}

func solveStr(t *testing.T, s *model.System, f string, opts Options) *Result {
	t.Helper()
	formula := tctl.MustParse(mkEnv(s), f)
	res, err := Solve(s, formula, opts)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return res
}

func TestOneStepReachable(t *testing.T) {
	s := oneStep()
	res := solveStr(t, s, "control: A<> P.Goal", Options{})
	if !res.Winnable {
		t.Fatal("one controllable step must be winnable")
	}
	st := res.Strategy
	if st == nil {
		t.Fatal("winnable reachability must produce a strategy")
	}
	// At x=0 the guard x>=2 fails: strategy must wait 2 time units.
	mv, err := st.MoveAt(st.InitialNode(), []int64{0}, tick, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Kind != MoveWait {
		t.Fatalf("at x=0 expected wait, got %v", mv)
	}
	if mv.WaitTicks != 2*tick {
		t.Fatalf("expected wait of exactly 2 units (%d ticks), got %d", 2*tick, mv.WaitTicks)
	}
	// At x=2.5 the action is enabled.
	mv, err = st.MoveAt(st.InitialNode(), []int64{2*tick + tick/2}, tick, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Kind != MoveAction {
		t.Fatalf("at x=2.5 expected action, got %v", mv)
	}
}

func TestOneStepUncontrollableNotWinnable(t *testing.T) {
	// Same shape but the edge is an output: the plant may never take it.
	s := model.NewSystem("onestep-u")
	x := s.AddClock("x")
	p := s.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A"})
	g := p.AddLocation(model.Location{Name: "Goal"})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: g, Dir: model.NoSync, Kind: model.Uncontrollable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 2), model.LE(x, 3)}},
	})
	res := solveStr(t, s, "control: A<> P.Goal", Options{})
	if res.Winnable {
		t.Fatal("an output the plant may withhold cannot be forced")
	}
	// Cooperatively (future work 4) it becomes winnable.
	coop := solveStr(t, s, "control: A<> P.Goal", Options{TreatAllControllable: true})
	if !coop.Winnable {
		t.Fatal("cooperative game must be winnable")
	}
	if coop.Strategy == nil || !coop.Strategy.Cooperative() {
		t.Fatal("cooperative solve must mark its strategy")
	}
}

// spoiler: in A, an uncontrollable edge leads to Trap while x<=1;
// a controllable edge leads to Goal once x>=1. The controller must not
// linger: at x in [0,1] the opponent may trap it, so winning requires
// x>1... but the controller cannot jump over time. The game is NOT winnable
// from x=0 (the opponent can act at x=0), and winnable from x>1.
func spoiler() *model.System {
	s := model.NewSystem("spoiler")
	x := s.AddClock("x")
	p := s.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A"})
	g := p.AddLocation(model.Location{Name: "Goal"})
	tr := p.AddLocation(model.Location{Name: "Trap"})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: tr, Dir: model.NoSync, Kind: model.Uncontrollable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.LE(x, 1)}},
	})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: g, Dir: model.NoSync, Kind: model.Controllable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 1)}},
	})
	return s
}

func TestSpoilerNotWinnableFromZero(t *testing.T) {
	res := solveStr(t, spoiler(), "control: A<> P.Goal", Options{})
	if res.Winnable {
		t.Fatal("the opponent can trap at any x<=1, before the controller can act; x=0 must be losing")
	}
}

func TestSpoilerWinRegionBoundary(t *testing.T) {
	res := solveStr(t, spoiler(), "control: A<> P.Goal", Options{})
	// The initial node's winning region: points with x>1 win (the trap is
	// disabled and the controller can act); points with x<=1 lose.
	win := res.Win[0]
	cases := []struct {
		x    int64
		want bool
	}{
		{0, false},
		{tick / 2, false},
		{tick, false},    // x==1: trap still enabled (tie), opponent wins
		{tick + 1, true}, // just past 1
		{2 * tick, true},
	}
	for _, c := range cases {
		if got := win.ContainsPoint([]int64{c.x}, tick); got != c.want {
			t.Errorf("win region at x=%d ticks: got %v want %v (win=%v)", c.x, got, c.want, win)
		}
	}
}

func TestRaceControllerPreempts(t *testing.T) {
	// Controller can act immediately (x>=0) while opponent's trap needs
	// x>=1: acting at x<1 wins; the initial point x=0 is winning.
	s := model.NewSystem("race")
	x := s.AddClock("x")
	p := s.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A"})
	g := p.AddLocation(model.Location{Name: "Goal"})
	tr := p.AddLocation(model.Location{Name: "Trap"})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: tr, Dir: model.NoSync, Kind: model.Uncontrollable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 1)}},
	})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: g, Dir: model.NoSync, Kind: model.Controllable,
	})
	res := solveStr(t, s, "control: A<> P.Goal", Options{})
	if !res.Winnable {
		t.Fatal("controller acting before the opponent's window must win")
	}
	mv, err := res.Strategy.MoveAt(0, []int64{0}, tick, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Kind != MoveAction {
		t.Fatalf("strategy must act immediately, got %v", mv)
	}
}

func TestTieGoesToOpponent(t *testing.T) {
	// Both the trap (uncontrollable) and the goal edge (controllable) are
	// enabled exactly at x>=1, x<=1 is trap's window too... make both
	// enabled only at exactly x==1: conservative semantics (ties to the
	// opponent) must declare the game not winnable.
	s := model.NewSystem("tie")
	x := s.AddClock("x")
	p := s.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A"})
	g := p.AddLocation(model.Location{Name: "Goal"})
	tr := p.AddLocation(model.Location{Name: "Trap"})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: tr, Dir: model.NoSync, Kind: model.Uncontrollable,
		Guard: model.Guard{Clocks: model.EQ(x, 1)},
	})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: g, Dir: model.NoSync, Kind: model.Controllable,
		Guard: model.Guard{Clocks: model.EQ(x, 1)},
	})
	res := solveStr(t, s, "control: A<> P.Goal", Options{})
	if res.Winnable {
		t.Fatal("with both moves only at x==1 the opponent wins ties; not winnable")
	}
}

func TestInvariantForcesDeadline(t *testing.T) {
	// A has invariant x<=5 and the controllable goal edge needs x>=2: the
	// controller must fire inside [2,5]; still winnable.
	s := model.NewSystem("deadline")
	x := s.AddClock("x")
	p := s.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A", Invariant: []model.ClockConstraint{model.LE(x, 5)}})
	g := p.AddLocation(model.Location{Name: "Goal"})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: g, Dir: model.NoSync, Kind: model.Controllable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 2)}},
	})
	res := solveStr(t, s, "control: A<> P.Goal", Options{})
	if !res.Winnable {
		t.Fatal("deadline game must be winnable")
	}
}

func TestTwoHopWithReset(t *testing.T) {
	// A --c1 (x>=1, x:=0)--> B --c2 (x>=1, x<=2)--> Goal, B invariant x<=2.
	s := model.NewSystem("twohop")
	x := s.AddClock("x")
	p := s.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A"})
	b := p.AddLocation(model.Location{Name: "B", Invariant: []model.ClockConstraint{model.LE(x, 2)}})
	g := p.AddLocation(model.Location{Name: "Goal"})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: b, Dir: model.NoSync, Kind: model.Controllable,
		Guard:  model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 1)}},
		Resets: []model.ClockReset{{Clock: x}},
	})
	s.AddEdge(p, model.Edge{
		Src: b, Dst: g, Dir: model.NoSync, Kind: model.Controllable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 1), model.LE(x, 2)}},
	})
	res := solveStr(t, s, "control: A<> P.Goal", Options{})
	if !res.Winnable {
		t.Fatal("two-hop game must be winnable")
	}
	// Simulate the strategy blindly (no opponent moves exist).
	sim := newSimulator(t, res.Strategy, 12345)
	if !sim.run(64) {
		t.Fatalf("strategy failed to reach goal: %s", sim.trace.String())
	}
}

func TestSafetyObjective(t *testing.T) {
	// A --out(uncontrollable, x>=3)--> Bad; controller can escape to Safe
	// (controllable, x>=1). control: A[] not P.Bad — winnable by escaping
	// before x reaches 3.
	s := model.NewSystem("safety")
	x := s.AddClock("x")
	p := s.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A"})
	bad := p.AddLocation(model.Location{Name: "Bad"})
	safe := p.AddLocation(model.Location{Name: "Safe"})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: bad, Dir: model.NoSync, Kind: model.Uncontrollable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 3)}},
	})
	s.AddEdge(p, model.Edge{
		Src: a, Dst: safe, Dir: model.NoSync, Kind: model.Controllable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 1)}},
	})
	res := solveStr(t, s, "control: A[] not P.Bad", Options{})
	if !res.Winnable {
		t.Fatal("controller can escape before x=3; safety must hold")
	}
	// Safe actions at x=1.5 must include the escape edge.
	acts := res.Strategy.SafeActions(0, []int64{tick + tick/2}, tick)
	if len(acts) == 0 {
		t.Fatal("escape action must be safe at x=1.5")
	}

	// Remove the escape: not winnable.
	s2 := model.NewSystem("safety2")
	x2 := s2.AddClock("x")
	p2 := s2.AddProcess("P")
	a2 := p2.AddLocation(model.Location{Name: "A"})
	bad2 := p2.AddLocation(model.Location{Name: "Bad"})
	s2.AddEdge(p2, model.Edge{
		Src: a2, Dst: bad2, Dir: model.NoSync, Kind: model.Uncontrollable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x2, 3)}},
	})
	res2 := solveStr(t, s2, "control: A[] not P.Bad", Options{})
	if res2.Winnable {
		t.Fatal("without escape the opponent can reach Bad")
	}
}

func TestBackwardAgreesOnHandGames(t *testing.T) {
	for _, build := range []func() *model.System{oneStep, spoiler} {
		s := build()
		fwd := solveStr(t, s, "control: A<> P.Goal", Options{Algorithm: OnTheFly})
		bwd := solveStr(t, s, "control: A<> P.Goal", Options{Algorithm: Backward})
		if fwd.Winnable != bwd.Winnable {
			t.Fatalf("%s: on-the-fly says %v, backward says %v", s.Name, fwd.Winnable, bwd.Winnable)
		}
	}
}

// --- randomized cross-validation and simulation ---------------------------

// randomGame builds a random single-process TIOGA with one or two clocks.
func randomGame(rng *rand.Rand) *model.System {
	s := model.NewSystem("random")
	nClocks := 1 + rng.Intn(2)
	clocks := make([]int, nClocks)
	for i := range clocks {
		clocks[i] = s.AddClock(string(rune('x' + i)))
	}
	p := s.AddProcess("P")
	nLocs := 3 + rng.Intn(3)
	for i := 0; i < nLocs; i++ {
		loc := model.Location{Name: string(rune('A' + i))}
		// Occasionally bound the location.
		if rng.Intn(3) == 0 {
			loc.Invariant = []model.ClockConstraint{model.LE(clocks[rng.Intn(nClocks)], 2+rng.Intn(4))}
		}
		p.AddLocation(loc)
	}
	nEdges := 3 + rng.Intn(5)
	for i := 0; i < nEdges; i++ {
		src, dst := rng.Intn(nLocs), rng.Intn(nLocs)
		kind := model.Controllable
		if rng.Intn(2) == 0 {
			kind = model.Uncontrollable
		}
		var guards []model.ClockConstraint
		if rng.Intn(2) == 0 {
			guards = append(guards, model.GE(clocks[rng.Intn(nClocks)], rng.Intn(4)))
		}
		if rng.Intn(2) == 0 {
			guards = append(guards, model.LE(clocks[rng.Intn(nClocks)], 2+rng.Intn(4)))
		}
		var resets []model.ClockReset
		if rng.Intn(3) == 0 {
			resets = append(resets, model.ClockReset{Clock: clocks[rng.Intn(nClocks)]})
		}
		s.AddEdge(p, model.Edge{
			Src: src, Dst: dst, Dir: model.NoSync, Kind: kind,
			Guard:  model.Guard{Clocks: guards},
			Resets: resets,
		})
	}
	return s
}

func TestSolversAgreeOnRandomGames(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	goalLoc := "control: A<> P.C"
	for iter := 0; iter < 120; iter++ {
		s := randomGame(rng)
		fwd, err1 := Solve(s, tctl.MustParse(mkEnv(s), goalLoc), Options{Algorithm: OnTheFly, MaxNodes: 4000})
		bwd, err2 := Solve(s, tctl.MustParse(mkEnv(s), goalLoc), Options{Algorithm: Backward, MaxNodes: 4000})
		if err1 != nil || err2 != nil {
			t.Fatalf("iter %d: err1=%v err2=%v", iter, err1, err2)
		}
		if fwd.Winnable != bwd.Winnable {
			t.Fatalf("iter %d: disagreement otf=%v backward=%v on\n%+v", iter, fwd.Winnable, bwd.Winnable, s)
		}
		ref, err := worklistReference(s, tctl.MustParse(mkEnv(s), goalLoc))
		if err != nil {
			t.Fatalf("iter %d: worklist: %v", iter, err)
		}
		if ref.Winnable != fwd.Winnable {
			t.Fatalf("iter %d: disagreement otf=%v worklist=%v on\n%+v", iter, fwd.Winnable, ref.Winnable, s)
		}
	}
}

func TestStrategySimulationOnRandomGames(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	goal := "control: A<> P.C"
	winnableSeen := 0
	for iter := 0; iter < 150; iter++ {
		s := randomGame(rng)
		res, err := Solve(s, tctl.MustParse(mkEnv(s), goal), Options{MaxNodes: 4000})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !res.Winnable {
			continue
		}
		winnableSeen++
		for run := 0; run < 20; run++ {
			sim := newSimulator(t, res.Strategy, int64(iter*100+run))
			if !sim.run(200) {
				t.Fatalf("iter %d run %d: winning strategy lost the game\ntrace: %s", iter, run, sim.trace.String())
			}
		}
	}
	if winnableSeen < 10 {
		t.Fatalf("only %d winnable random games; generator too weak", winnableSeen)
	}
}

func TestEarlyTerminationConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	goal := "control: A<> P.C"
	for iter := 0; iter < 60; iter++ {
		s := randomGame(rng)
		full, err1 := Solve(s, tctl.MustParse(mkEnv(s), goal), Options{})
		early, err2 := Solve(s, tctl.MustParse(mkEnv(s), goal), Options{EarlyTermination: true})
		if err1 != nil || err2 != nil {
			t.Fatalf("iter %d: %v %v", iter, err1, err2)
		}
		if full.Winnable != early.Winnable {
			t.Fatalf("iter %d: early termination changed the verdict", iter)
		}
	}
}

func TestBudgetEnforced(t *testing.T) {
	s := oneStep()
	f := tctl.MustParse(mkEnv(s), "control: A<> P.Goal")
	if _, err := Solve(s, f, Options{MaxNodes: 1}); err == nil {
		t.Fatal("node budget of 1 must trip")
	}
	if _, err := Solve(s, f, Options{TimeBudget: time.Nanosecond}); err == nil {
		t.Fatal("nanosecond time budget must trip")
	}
}

func TestStatsPopulated(t *testing.T) {
	res := solveStr(t, oneStep(), "control: A<> P.Goal", Options{})
	if res.Stats.Nodes == 0 || res.Stats.Reevals == 0 || res.Stats.Duration <= 0 {
		t.Fatalf("stats look empty: %+v", res.Stats)
	}
}
