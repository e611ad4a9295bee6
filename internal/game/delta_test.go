// Differential tests for the incremental mutant re-solve (delta.go): for
// every mutation operator, the dirty-cone solve must agree with the E10
// cold path (same merged-maxima graph: identical node and transition
// counts, semantically equal winning sets) and with an independent solve of
// the mutant (winnability).

package game

import (
	"fmt"
	"testing"

	"tigatest/internal/expr"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/mutate"
	"tigatest/internal/tctl"
)

// TestDeltaSolveMatchesCold drives SolveDelta across the built-in models,
// every applicable mutation operator, both games and both engine schedules,
// comparing the incremental path against the DisableIncremental ablation
// node for node.
func TestDeltaSolveMatchesCold(t *testing.T) {
	for _, mn := range []string{"smartlight", "traingate"} {
		sys, env, plant, goalSrc, err := models.ByName(mn, 2)
		if err != nil {
			t.Fatal(err)
		}
		f := tctl.MustParse(env, goalSrc)
		muts := mutate.All(sys, plant, 2)
		if len(muts) == 0 {
			t.Fatalf("%s: no mutants generated", mn)
		}
		for _, workers := range []int{1, 4} {
			inc, err := NewBatch(sys, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := NewBatch(sys, Options{Workers: workers, DisableIncremental: true})
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for _, m := range muts {
				// Some operators can break the system outright (a swapped
				// output may strand a receive); those rows never reach the
				// solver in a campaign either.
				if m.Sys.Validate() != nil {
					continue
				}
				checked++
				es, err := model.Diff(sys, m.Sys)
				if err != nil {
					t.Fatalf("%s %s: diff: %v", mn, m.Description, err)
				}
				if es.Empty() {
					t.Fatalf("%s %s: mutant diffs as empty", mn, m.Description)
				}
				for _, coop := range []bool{false, true} {
					ri, err := inc.SolveDelta(m.Sys, es, f, coop)
					if err != nil {
						t.Fatalf("%s %s coop=%v workers=%d: incremental: %v", mn, m.Description, coop, workers, err)
					}
					rc, err := cold.SolveDelta(m.Sys, es, f, coop)
					if err != nil {
						t.Fatalf("%s %s coop=%v workers=%d: cold: %v", mn, m.Description, coop, workers, err)
					}
					ctx := mn + " " + m.Description
					if ri.Winnable != rc.Winnable {
						t.Fatalf("%s coop=%v workers=%d: incremental winnable=%v, cold winnable=%v",
							ctx, coop, workers, ri.Winnable, rc.Winnable)
					}
					if ri.Stats.Nodes != rc.Stats.Nodes || ri.Stats.Transitions != rc.Stats.Transitions {
						t.Fatalf("%s coop=%v workers=%d: incremental graph %d/%d, cold graph %d/%d",
							ctx, coop, workers, ri.Stats.Nodes, ri.Stats.Transitions, rc.Stats.Nodes, rc.Stats.Transitions)
					}
					if len(ri.Win) != len(rc.Win) {
						t.Fatalf("%s coop=%v workers=%d: win map sizes %d vs %d",
							ctx, coop, workers, len(ri.Win), len(rc.Win))
					}
					for id, w := range rc.Win {
						if !ri.Win[id].Equals(w) {
							t.Fatalf("%s coop=%v workers=%d: winning set of node %d differs",
								ctx, coop, workers, id)
						}
					}
					// Independent reference under the mutant's own maxima:
					// numbering differs, winnability cannot.
					rr, err := Solve(m.Sys, f, Options{Algorithm: Backward, Workers: workers, PropagationWorkers: 1, TreatAllControllable: coop})
					if err != nil {
						t.Fatalf("%s: reference solve: %v", ctx, err)
					}
					if rr.Winnable != ri.Winnable {
						t.Fatalf("%s coop=%v workers=%d: incremental winnable=%v, reference solve winnable=%v",
							ctx, coop, workers, ri.Winnable, rr.Winnable)
					}
				}
			}
			if checked < 4 {
				t.Fatalf("%s: only %d valid mutants, differential coverage too thin", mn, checked)
			}
			// Every mutant family must have shared base explorations through
			// the merged-signature skeleton cache, not re-explored per mutant.
			if len(inc.graphs) >= checked {
				t.Fatalf("%s workers=%d: %d core skeletons for %d mutants — the delta path is not sharing",
					mn, workers, len(inc.graphs), checked)
			}
		}
	}
}

// TestDeltaEdgeGhostMatchesCold pins the composed path: ghost overlay of a
// watched edge split over the mutant's delta skeleton versus the same
// overlay over the cold merged-maxima skeleton.
func TestDeltaEdgeGhostMatchesCold(t *testing.T) {
	sys := models.SmartLight()
	plant := models.SmartLightPlant(sys)
	muts := mutate.All(sys, plant, 1)
	if len(muts) == 0 {
		t.Fatal("no mutants generated")
	}
	for _, workers := range []int{1, 4} {
		inc, err := NewBatch(sys, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewBatch(sys, Options{Workers: workers, DisableIncremental: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range muts {
			if m.Sys.Validate() != nil {
				continue
			}
			es, err := model.Diff(sys, m.Sys)
			if err != nil {
				t.Fatalf("%s: diff: %v", m.Description, err)
			}
			// Watch the first edge of the first plant process, instrumenting
			// the mutant the way campaign.instrumentEdge does.
			edgeID := m.Sys.Procs[plant[0]].Edges[0].ID
			inst, gf := instrumentForTest(t, m.Sys, edgeID)
			for _, coop := range []bool{false, true} {
				ri, err := inc.SolveDeltaEdgeGhost(inst, m.Sys, es, gf, edgeID, coop)
				if err != nil {
					t.Fatalf("%s coop=%v workers=%d: incremental: %v", m.Description, coop, workers, err)
				}
				rc, err := cold.SolveDeltaEdgeGhost(inst, m.Sys, es, gf, edgeID, coop)
				if err != nil {
					t.Fatalf("%s coop=%v workers=%d: cold: %v", m.Description, coop, workers, err)
				}
				if ri.Winnable != rc.Winnable {
					t.Fatalf("%s coop=%v workers=%d: incremental winnable=%v, cold winnable=%v",
						m.Description, coop, workers, ri.Winnable, rc.Winnable)
				}
				if ri.Stats.Nodes != rc.Stats.Nodes || ri.Stats.Transitions != rc.Stats.Transitions {
					t.Fatalf("%s coop=%v workers=%d: incremental graph %d/%d, cold graph %d/%d",
						m.Description, coop, workers, ri.Stats.Nodes, ri.Stats.Transitions, rc.Stats.Nodes, rc.Stats.Transitions)
				}
				for id, w := range rc.Win {
					if !ri.Win[id].Equals(w) {
						t.Fatalf("%s coop=%v workers=%d: winning set of node %d differs",
							m.Description, coop, workers, id)
					}
				}
			}
		}
	}
}

// TestDeltaEdgeGhostVerdictMatchesReference pins the verdict contract of
// the edge-ghost re-solve, which stops once the initial state is decided:
// for every valid Smart Light mutant, every plant edge and both games, its
// Winnable must equal a complete backward solve of the instrumented mutant,
// and a winnable result's strategy must decide a move at the initial
// valuation.
func TestDeltaEdgeGhostVerdictMatchesReference(t *testing.T) {
	sys := models.SmartLight()
	plant := models.SmartLightPlant(sys)
	muts := mutate.All(sys, plant, 1)
	if len(muts) == 0 {
		t.Fatal("no mutants generated")
	}
	b, err := NewBatch(sys, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	solves, winnable := 0, 0
	for _, m := range muts {
		if m.Sys.Validate() != nil {
			continue
		}
		es, err := model.Diff(sys, m.Sys)
		if err != nil {
			t.Fatalf("%s: diff: %v", m.Description, err)
		}
		for _, p := range plant {
			for _, e := range m.Sys.Procs[p].Edges {
				inst, gf := instrumentForTest(t, m.Sys, e.ID)
				for _, coop := range []bool{false, true} {
					ctx := fmt.Sprintf("%s edge %d coop=%v", m.Description, e.ID, coop)
					r, err := b.SolveDeltaEdgeGhost(inst, m.Sys, es, gf, e.ID, coop)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					ref, err := Solve(inst, gf, Options{Algorithm: Backward, PropagationWorkers: 1, TreatAllControllable: coop})
					if err != nil {
						t.Fatalf("%s: reference solve: %v", ctx, err)
					}
					if r.Winnable != ref.Winnable {
						t.Fatalf("%s: winnable=%v, complete solve winnable=%v", ctx, r.Winnable, ref.Winnable)
					}
					solves++
					if !r.Winnable {
						continue
					}
					winnable++
					c := r.Consultant()
					if _, err := c.MoveAt(c.InitialNode(), make([]int64, inst.NumClocks()-1), tick, 0); err != nil {
						t.Fatalf("%s: no move at the initial valuation: %v", ctx, err)
					}
				}
			}
		}
	}
	if winnable == 0 || winnable == solves {
		t.Fatalf("%d of %d solves winnable: both verdicts must be exercised", winnable, solves)
	}
}

// instrumentForTest mirrors campaign.instrumentEdge: clone the system,
// append a 0/1 ghost variable, assign it on the watched edge, and build the
// "ghost == 1" reachability purpose.
func instrumentForTest(t *testing.T, sys *model.System, edgeID int) (*model.System, *tctl.Formula) {
	t.Helper()
	c := sys.Clone()
	vars := expr.NewTable()
	for i := 0; i < sys.Vars.NumDecls(); i++ {
		if _, err := vars.Declare(sys.Vars.Decl(i)); err != nil {
			t.Fatal(err)
		}
	}
	const name = "ghost_test"
	if _, err := vars.Declare(expr.VarDecl{Name: name, Min: 0, Max: 1}); err != nil {
		t.Fatal(err)
	}
	c.Vars = vars
	e := c.EdgeByID(edgeID)
	if e == nil {
		t.Fatalf("no edge with id %d", edgeID)
	}
	ghost, err := expr.NewVar(vars, name, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Assigns = append(e.Assigns, expr.Assign{Target: ghost, Value: expr.Lit(1)})
	f := &tctl.Formula{
		Objective: tctl.Reach,
		Prop:      &tctl.PData{E: expr.NewBin(expr.OpEq, ghost, expr.Lit(1))},
		Source:    "control: A<> " + name + " == 1",
	}
	return c, f
}
