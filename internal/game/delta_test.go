// Differential tests for the incremental mutant re-solve (delta.go): for
// every mutation operator, the dirty-cone solve must agree with the E10
// cold path (same merged-maxima graph: identical node and transition
// counts, and semantically equal winning sets once both run to the complete
// fixpoint) and with an independent solve of the mutant (winnability).

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
// comparing the incremental path against the DisableIncremental ablation:
// verdicts and counts of the verdict-only solves SolveDelta returns, and
// node for node the winning sets of both arms run to the complete fixpoint
// (completeDeltaSolves).
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
					fi, fc := completeDeltaSolves(t, inc, cold, m.Sys, es, f, coop)
					if fi.Winnable != ri.Winnable || fc.Winnable != ri.Winnable {
						t.Fatalf("%s coop=%v workers=%d: complete incremental/cold winnable=%v/%v, verdict-only %v",
							ctx, coop, workers, fi.Winnable, fc.Winnable, ri.Winnable)
					}
					if len(fi.Win) != len(fc.Win) {
						t.Fatalf("%s coop=%v workers=%d: win map sizes %d vs %d",
							ctx, coop, workers, len(fi.Win), len(fc.Win))
					}
					for id, w := range fc.Win {
						if !fi.Win[id].Equals(w) {
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

// TestDeltaSolveVerdictMatchesReference pins the verdict contract of the
// location re-solve, which stops once the initial state is decided: for
// Smart Light, Train-Gate and LEP n=3, every valid mutant, the model's goal
// plus two location-coverage purposes and both games, the incremental and
// the cold SolveDelta must report the verdict of a complete backward solve
// of the mutant and the same graph counts; every winning set they report
// must lie within the complete fixpoint's; and a winnable result's
// strategy must decide a move at the initial valuation.
func TestDeltaSolveVerdictMatchesReference(t *testing.T) {
	solves, winnable := 0, 0
	for _, mn := range []string{"smartlight", "traingate", "lep"} {
		sys, env, plant, goalSrc, err := models.ByName(mn, 3)
		if err != nil {
			t.Fatal(err)
		}
		p := sys.Procs[plant[0]]
		purposes := []*tctl.Formula{tctl.MustParse(env, goalSrc)}
		for _, l := range []int{len(p.Locations) / 2, len(p.Locations) - 1} {
			purposes = append(purposes, tctl.MustParse(env, fmt.Sprintf("control: A<> %s.%s", p.Name, p.Locations[l].Name)))
		}
		inc, err := NewBatch(sys, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewBatch(sys, Options{Workers: 1, DisableIncremental: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mutate.All(sys, plant, 2) {
			if m.Sys.Validate() != nil {
				continue
			}
			es, err := model.Diff(sys, m.Sys)
			if err != nil {
				t.Fatalf("%s %s: diff: %v", mn, m.Description, err)
			}
			for _, f := range purposes {
				for _, coop := range []bool{false, true} {
					ctx := fmt.Sprintf("%s %s %q coop=%v", mn, m.Description, f.Source, coop)
					ri, err := inc.SolveDelta(m.Sys, es, f, coop)
					if err != nil {
						t.Fatalf("%s: incremental: %v", ctx, err)
					}
					rc, err := cold.SolveDelta(m.Sys, es, f, coop)
					if err != nil {
						t.Fatalf("%s: cold: %v", ctx, err)
					}
					ref, err := Solve(m.Sys, f, Options{Algorithm: Backward, PropagationWorkers: 1, TreatAllControllable: coop})
					if err != nil {
						t.Fatalf("%s: reference solve: %v", ctx, err)
					}
					if ri.Winnable != ref.Winnable || rc.Winnable != ref.Winnable {
						t.Fatalf("%s: incremental/cold winnable=%v/%v, complete solve winnable=%v", ctx, ri.Winnable, rc.Winnable, ref.Winnable)
					}
					if ri.Stats.Nodes != rc.Stats.Nodes || ri.Stats.Transitions != rc.Stats.Transitions {
						t.Fatalf("%s: incremental graph %d/%d, cold graph %d/%d",
							ctx, ri.Stats.Nodes, ri.Stats.Transitions, rc.Stats.Nodes, rc.Stats.Transitions)
					}
					_, full := completeDeltaSolves(t, inc, cold, m.Sys, es, f, coop)
					for _, r := range []*Result{ri, rc} {
						for id, w := range r.Win {
							if !w.SubsetOf(full.Win[id]) {
								t.Fatalf("%s: winning set of node %d exceeds the complete fixpoint's", ctx, id)
							}
						}
						if !r.Winnable {
							continue
						}
						c, err := r.CompiledStrategy()
						if err != nil {
							t.Fatalf("%s: compile: %v", ctx, err)
						}
						if _, err := c.MoveAt(c.InitialNode(), make([]int64, m.Sys.NumClocks()-1), tick, 0); err != nil {
							t.Fatalf("%s: no move at the initial valuation: %v", ctx, err)
						}
					}
					solves++
					if ri.Winnable {
						winnable++
					}
				}
			}
		}
	}
	if winnable == 0 || winnable == solves {
		t.Fatalf("%d of %d solves winnable: both verdicts must be exercised", winnable, solves)
	}
	t.Logf("%d mutant solves, %d winnable", solves, winnable)
}

// completeDeltaSolves re-solves a mutant to the complete fixpoint on both
// arms, built from the pieces SolveDelta runs with EarlyTermination left
// off: the dirty-cone solve over inc's replayed skeleton and cached base
// fixpoint, and the whole-graph solve over cold's merged-maxima skeleton.
// Both share the graph numbering of SolveDelta's results on their batch.
func completeDeltaSolves(t *testing.T, inc, cold *Batch, mut *model.System, es *model.EditSet, f *tctl.Formula, coop bool) (ri, rc *Result) {
	t.Helper()
	max := mergedMaxima(inc.sys, mut, f.ClockConstraints())
	var st Stats
	dsk, _, _, err := inc.deltaSkeleton(mut, es, f, max, &st)
	if err != nil {
		t.Fatal(err)
	}
	if dsk.dirty == nil {
		t.Fatal("incremental batch holds a cold-built mutant skeleton")
	}
	fix, err := inc.baseFixpoint(f, coop, max)
	if err != nil {
		t.Fatal(err)
	}
	s := inc.newSolver(mut, f, coop)
	s.opts.EarlyTermination = false
	if ri, err = s.solveOnDelta(dsk, fix); err != nil {
		t.Fatal(err)
	}

	csk, _, _, err := cold.deltaSkeleton(mut, es, f, max, &st)
	if err != nil {
		t.Fatal(err)
	}
	if csk.dirty != nil {
		t.Fatal("cold batch holds a replayed mutant skeleton")
	}
	s = cold.newSolver(mut, f, coop)
	s.opts.EarlyTermination = false
	if rc, err = s.solveOnSkeleton(csk.sk); err != nil {
		t.Fatal(err)
	}
	return ri, rc
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
					c, err := r.CompiledStrategy()
					if err != nil {
						t.Fatalf("%s: compile: %v", ctx, err)
					}
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
