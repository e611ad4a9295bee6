package symbolic

import (
	"slices"
	"sync"
	"testing"

	"tigatest/internal/dbm"
	"tigatest/internal/expr"
	"tigatest/internal/model"
	"tigatest/internal/models"
)

// reachable explores the zone graph of sys breadth first and returns every
// state, in discovery order.
func reachable(t *testing.T, ex *Explorer) []*State {
	t.Helper()
	init, err := ex.Initial()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64][]*State{init.HashKey(): {init}}
	states := []*State{init}
	for i := 0; i < len(states); i++ {
		succs, err := ex.Successors(states[i])
		if err != nil {
			t.Fatal(err)
		}
	next:
		for _, sc := range succs {
			h := sc.State.HashKey()
			for _, o := range seen[h] {
				if o.EqualTo(sc.State) {
					continue next
				}
			}
			seen[h] = append(seen[h], sc.State)
			states = append(states, sc.State)
		}
	}
	return states
}

// TestTransitionsInterned walks every reachable state of Smart Light and
// LEP n=3 and checks that each internal edge and each synchronized pair is
// one and the same *Transition wherever it is a candidate, and that fired
// successors carry that pointer.
func TestTransitionsInterned(t *testing.T) {
	for _, name := range []string{"smartlight", "lep"} {
		sys, _, _, _, err := models.ByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExplorer(sys, nil)
		states := reachable(t, ex)
		type key struct{ e, f int }
		byEdges := map[key]*Transition{}
		for _, st := range states {
			var cands []*Transition
			if err := ex.Candidates(st, func(tr *Transition) error {
				k := key{tr.Edges[0].ID, -1}
				if len(tr.Edges) == 2 {
					k.f = tr.Edges[1].ID
				}
				if first, ok := byEdges[k]; !ok {
					byEdges[k] = tr
				} else if first != tr {
					t.Fatalf("%s: edges %v yield two transitions", name, k)
				}
				cands = append(cands, tr)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			succs, err := ex.Successors(st)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for _, sc := range succs {
				for i < len(cands) && cands[i] != sc.Trans {
					i++ // disabled candidate
				}
				if i == len(cands) {
					t.Fatalf("%s: successor transition %s is not a candidate, in order", name, sc.Trans.Label)
				}
				i++
			}
		}
		t.Logf("%s: %d states, %d interned transitions seen", name, len(states), len(byEdges))
	}
}

// TestDisabledCandidatesAllocateNothing fires only disabled candidates
// from the initial state: a clock guard the invariant excludes, a data
// guard that is false, and a synchronized pair whose receiver guard the
// invariant excludes. Exploring a state then costs no allocation at all.
func TestDisabledCandidatesAllocateNothing(t *testing.T) {
	sys := model.NewSystem("disabled")
	x := sys.AddClock("x")
	sys.Vars.MustDeclare(expr.VarDecl{Name: "n", Min: 0, Max: 2})
	nv := expr.MustVar(sys.Vars, "n", nil)
	go_ := sys.AddChannel("go", model.Controllable)
	p := sys.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A", Invariant: []model.ClockConstraint{model.LE(x, 1)}})
	b := p.AddLocation(model.Location{Name: "B"})
	sys.AddEdge(p, model.Edge{Src: a, Dst: b, Dir: model.NoSync, Kind: model.Controllable,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 2)}}})
	sys.AddEdge(p, model.Edge{Src: a, Dst: b, Dir: model.NoSync, Kind: model.Controllable,
		Guard: model.Guard{Data: expr.NewBin(expr.OpEq, nv, expr.Lit(1))}})
	sys.AddEdge(p, model.Edge{Src: a, Dst: b, Dir: model.Receive, Chan: go_,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 3)}}})
	q := sys.AddProcess("Q")
	q0 := q.AddLocation(model.Location{Name: "Q0"})
	sys.AddEdge(q, model.Edge{Src: q0, Dst: q0, Dir: model.Emit, Chan: go_})

	ex := NewExplorer(sys, nil)
	init, err := ex.Initial()
	if err != nil {
		t.Fatal(err)
	}
	ncand := 0
	ex.Candidates(init, func(*Transition) error { ncand++; return nil })
	buf := make([]Succ, 0, 4)
	var sc Scratch
	if succs, err := ex.AppendSuccessors(buf, init, &sc); err != nil || len(succs) != 0 || ncand != 3 {
		t.Fatalf("want 3 candidates, both disabled: %d candidates, %d successors, err %v", ncand, len(succs), err)
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop zones at random")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ex.AppendSuccessors(buf[:0], init, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendSuccessors with every candidate disabled allocates %.1f times", allocs)
	}
}

// TestPredOnlyExplorerBuildsNoTable: the per-purpose solvers of a batch
// only compute predecessors through another explorer's transitions, so
// their own explorer must never build a transition table.
func TestPredOnlyExplorerBuildsNoTable(t *testing.T) {
	s, _, _ := twoProc()
	ex := NewExplorer(s, nil)
	init, _ := ex.Initial()
	succs, err := ex.Successors(init)
	if err != nil || len(succs) == 0 {
		t.Fatalf("no successor to compute a predecessor through: %v", err)
	}
	if ex.tau == nil {
		t.Fatal("enumerating successors did not build the table")
	}
	pred := NewExplorer(s, nil)
	pred.PredThroughEdge(init, succs[0].Trans, dbm.FedFromDBM(s.NumClocks(), succs[0].State.Zone.Clone()))
	if pred.tau != nil || pred.pairs != nil {
		t.Fatal("an explorer used only for PredThroughEdge built a transition table")
	}
}

// TestConcurrentFirstCandidates races several goroutines into the first
// Candidates calls of a fresh explorer: the table is built once, and every
// goroutine sees the same transitions.
func TestConcurrentFirstCandidates(t *testing.T) {
	sys, _, _, _, err := models.ByName("lep", 3)
	if err != nil {
		t.Fatal(err)
	}
	states := reachable(t, NewExplorer(sys, nil))
	ex := NewExplorer(sys, nil)
	const goroutines = 4
	seen := make([][]*Transition, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []Succ
			var sc Scratch
			for _, st := range states {
				var err error
				if buf, err = ex.AppendSuccessors(buf[:0], st, &sc); err != nil {
					t.Error(err)
					return
				}
				for _, sc := range buf {
					seen[g] = append(seen[g], sc.Trans)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if !slices.Equal(seen[g], seen[0]) {
			t.Fatalf("goroutine %d saw other transitions than goroutine 0", g)
		}
	}
}
