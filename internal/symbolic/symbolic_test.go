package symbolic

import (
	"testing"

	"tigatest/internal/dbm"
	"tigatest/internal/expr"
	"tigatest/internal/model"
)

// twoProc builds Plant(Idle --press?/x:=0--> Busy[x<=5] --beep!(x>=2)--> Idle)
// composed with a permissive environment.
func twoProc() (*model.System, int, int) {
	s := model.NewSystem("two")
	x := s.AddClock("x")
	press := s.AddChannel("press", model.Controllable)
	beep := s.AddChannel("beep", model.Uncontrollable)
	p := s.AddProcess("Plant")
	idle := p.AddLocation(model.Location{Name: "Idle"})
	busy := p.AddLocation(model.Location{Name: "Busy", Invariant: []model.ClockConstraint{model.LE(x, 5)}})
	s.AddEdge(p, model.Edge{Src: idle, Dst: busy, Dir: model.Receive, Chan: press, Resets: []model.ClockReset{{Clock: x}}})
	s.AddEdge(p, model.Edge{Src: busy, Dst: idle, Dir: model.Emit, Chan: beep,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 2)}}})
	env := s.AddProcess("Env")
	e0 := env.AddLocation(model.Location{Name: "E"})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Emit, Chan: press})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: beep})
	return s, press, beep
}

func TestInitialIsDelayClosed(t *testing.T) {
	s, _, _ := twoProc()
	ex := NewExplorer(s, nil)
	init, err := ex.Initial()
	if err != nil {
		t.Fatal(err)
	}
	// Idle has no invariant: the initial zone is x unbounded above.
	if init.Zone.At(1, 0) != dbm.Infinity {
		t.Fatalf("initial zone must be delay-closed: %v", init.Zone)
	}
	if init.Locs[0] != 0 || init.Locs[1] != 0 {
		t.Fatalf("initial locations wrong: %v", init.Locs)
	}
}

func TestSuccessorsSyncAndInvariant(t *testing.T) {
	s, press, beep := twoProc()
	ex := NewExplorer(s, nil)
	init, _ := ex.Initial()
	succs, err := ex.Successors(init)
	if err != nil {
		t.Fatal(err)
	}
	if len(succs) != 1 {
		t.Fatalf("only press is enabled initially, got %d successors", len(succs))
	}
	sc := succs[0]
	if sc.Trans.Chan != press || sc.Trans.Kind != model.Controllable {
		t.Fatalf("expected controllable press, got %+v", sc.Trans)
	}
	// Busy zone: x in [0,5] after reset + delay closure under invariant.
	if sc.State.Zone.At(1, 0) != dbm.LE(5) {
		t.Fatalf("busy zone must be capped by the invariant: %v", sc.State.Zone)
	}
	// From Busy, beep is enabled (x>=2 within [0,5]).
	succs2, _ := ex.Successors(sc.State)
	foundBeep := false
	for _, s2 := range succs2 {
		if s2.Trans.Chan == beep {
			foundBeep = true
			if s2.Trans.Kind != model.Uncontrollable {
				t.Error("beep must be uncontrollable")
			}
		}
	}
	if !foundBeep {
		t.Fatal("beep successor missing")
	}
}

func TestDataGuardsAndAssignments(t *testing.T) {
	s := model.NewSystem("data")
	s.AddClock("x")
	s.Vars.MustDeclare(expr.VarDecl{Name: "n", Min: 0, Max: 2})
	p := s.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A"})
	nv := expr.MustVar(s.Vars, "n", nil)
	s.AddEdge(p, model.Edge{Src: a, Dst: a, Dir: model.NoSync, Kind: model.Controllable,
		Guard:   model.Guard{Data: expr.NewBin(expr.OpLt, nv, expr.Lit(2))},
		Assigns: []expr.Assign{{Target: nv, Value: expr.NewBin(expr.OpAdd, nv, expr.Lit(1))}},
	})
	ex := NewExplorer(s, nil)
	st, _ := ex.Initial()
	// Two increments allowed, then the guard blocks.
	for i := 0; i < 2; i++ {
		succs, err := ex.Successors(st)
		if err != nil {
			t.Fatal(err)
		}
		if len(succs) != 1 {
			t.Fatalf("step %d: expected the loop enabled, got %d", i, len(succs))
		}
		st = succs[0].State
	}
	if st.Vars[0] != 2 {
		t.Fatalf("n = %d, want 2", st.Vars[0])
	}
	succs, _ := ex.Successors(st)
	if len(succs) != 0 {
		t.Fatal("guard n<2 must block after two steps")
	}
}

func TestKeysDistinguishStates(t *testing.T) {
	s, _, _ := twoProc()
	ex := NewExplorer(s, nil)
	init, _ := ex.Initial()
	succs, _ := ex.Successors(init)
	if init.EqualTo(succs[0].State) {
		t.Fatal("different states must not compare equal")
	}
	if init.HashKey() == succs[0].State.HashKey() {
		t.Fatal("different states must have different hash keys")
	}
	if init.DiscreteHash() == succs[0].State.DiscreteHash() {
		t.Fatal("different locations must differ in discrete hash")
	}
	if !init.EqualTo(init) || init.HashKey() != init.HashKey() {
		t.Fatal("a state must equal itself with a stable hash")
	}
}

func TestExtrapolationBoundsZoneGraph(t *testing.T) {
	// A self-loop with reset-free guard x>=1 would produce unboundedly
	// growing lower bounds without extrapolation.
	s := model.NewSystem("extra")
	x := s.AddClock("x")
	p := s.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A"})
	b := p.AddLocation(model.Location{Name: "B"})
	s.AddEdge(p, model.Edge{Src: a, Dst: b, Dir: model.NoSync, Kind: model.Controllable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 1)}}})
	s.AddEdge(p, model.Edge{Src: b, Dst: a, Dir: model.NoSync, Kind: model.Controllable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 3)}}})

	ex := NewExplorer(s, nil)
	seen := map[uint64]bool{}
	st, _ := ex.Initial()
	frontier := []*State{st}
	seen[st.HashKey()] = true
	for steps := 0; len(frontier) > 0 && steps < 1000; steps++ {
		next := frontier[0]
		frontier = frontier[1:]
		succs, err := ex.Successors(next)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range succs {
			if !seen[sc.State.HashKey()] {
				seen[sc.State.HashKey()] = true
				frontier = append(frontier, sc.State)
			}
		}
	}
	if len(frontier) != 0 {
		t.Fatalf("zone graph did not close under extrapolation: %d states seen", len(seen))
	}
	if len(seen) > 8 {
		t.Fatalf("expected a handful of states, got %d", len(seen))
	}
}

func TestPredThroughEdgeInvertsFire(t *testing.T) {
	// For a transition with guard and reset: pred(fire(Z)) must cover the
	// guard-satisfying part of Z.
	s, press, _ := twoProc()
	_ = press
	ex := NewExplorer(s, nil)
	init, _ := ex.Initial()
	succs, _ := ex.Successors(init)
	sc := succs[0]
	target := dbm.FedFromDBM(s.NumClocks(), sc.State.Zone.Clone())
	pred := ex.PredThroughEdge(init, sc.Trans, target)
	// The press edge has no guard: every point of the source zone must be
	// in the predecessor.
	if !dbm.FedFromDBM(s.NumClocks(), init.Zone.Clone()).Subtract(pred).IsEmpty() {
		t.Fatalf("pred of full target must cover the source zone: %v", pred)
	}
	// Restrict the target to x=4 (not the reset point x=0): pred is empty.
	pt := dbm.New(s.NumClocks()).Constrain(1, 0, dbm.LE(4)).Constrain(0, 1, dbm.LE(-4))
	pred = ex.PredThroughEdge(init, sc.Trans, dbm.FedFromDBM(s.NumClocks(), pt))
	if !pred.IsEmpty() {
		t.Fatalf("after the reset the landing point is x=0; x=4 targets are unreachable: %v", pred)
	}
}

func TestUrgentLocationSkipsDelayClosure(t *testing.T) {
	s := model.NewSystem("urgent")
	x := s.AddClock("x")
	p := s.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A"})
	u := p.AddLocation(model.Location{Name: "U", Urgent: true})
	s.AddEdge(p, model.Edge{Src: a, Dst: u, Dir: model.NoSync, Kind: model.Controllable,
		Guard:  model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 1), model.LE(x, 1)}},
		Resets: nil})
	ex := NewExplorer(s, nil)
	init, _ := ex.Initial()
	succs, _ := ex.Successors(init)
	if len(succs) != 1 {
		t.Fatal("expected one successor")
	}
	z := succs[0].State.Zone
	if z.At(1, 0) != dbm.LE(1) || z.At(0, 1) != dbm.LE(-1) {
		t.Fatalf("urgent target must keep x pinned at 1, got %v", z)
	}
}
