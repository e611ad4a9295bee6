package game_test

import (
	"fmt"
	"os"
	"slices"
	"testing"

	"tigatest/internal/dsl"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

// TestCompiledExecutionMatchesInterpreted drives whole test runs through
// the compiled consultant and pins them to the interpreted reference:
// against the deterministic conformant implementation — eager (fire at
// window open) and lazy (fire at window close) determinizations alike —
// verdict, reason, step count and the full observable trace must be
// identical across every shipped model × game mode. This is the
// execution-level face of the decision-equivalence contract
// (TestCompiledMatchesInterpreted covers single consultations).
func TestCompiledExecutionMatchesInterpreted(t *testing.T) {
	for _, mn := range []string{"smartlight", "traingate", "lep"} {
		sys, env, plant, goal, err := models.ByName(mn, 2)
		if err != nil {
			t.Fatal(err)
		}
		impl := model.ExtractPlant(sys, plant, "Tester")
		f := tctl.MustParse(env, goal)
		for _, coop := range []bool{false, true} {
			mode := "strict"
			if coop {
				mode = "coop"
			}
			res, err := game.Solve(sys, f, game.Options{TreatAllControllable: coop})
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
			for _, pol := range []struct {
				name   string
				policy *tiots.DetPolicy
			}{{"eager", nil}, {"lazy", tiots.LazyPolicy()}} {
				t.Run(fmt.Sprintf("%s/%s/%s", mn, mode, pol.name), func(t *testing.T) {
					opts := texec.Options{PlantProcs: plant}
					assertSameRun(t, sys, opts, game.Reference(res.Strategy), cs, func() tiots.IUT {
						return tiots.NewDetIUT(impl, tiots.Scale, pol.policy)
					})
				})
			}
		}
	}
}

// keyless hides the IUT's state key, as a remote adapter does, so runs
// play to the step budget instead of ending at a repeating closed loop.
type keyless struct{ tiots.IUT }

// TestClosedLoopMatchesInterpreted runs the closed-loop purpose of
// internal/texec, whose constant 10 exceeds every model constant, through
// the reference and the compiled tables. Both clamp the tester's valuation
// at MaxConstant, so the two must report the same bound and end every run
// alike: the lazy pinger passes after 10 time units, the eager one repeats
// a closed loop, and hiding its state key plays it to the step budget.
func TestClosedLoopMatchesInterpreted(t *testing.T) {
	src, err := os.ReadFile("../texec/testdata/pinger.tga")
	if err != nil {
		t.Fatal(err)
	}
	f := dsl.MustParse(string(src))
	res, err := game.Solve(f.Sys, tctl.MustParse(f.ParseEnv(), "control: A<> Plant.Loop and y >= 10"), game.Options{TreatAllControllable: true})
	if err != nil || !res.Winnable {
		t.Fatalf("the pinger purpose must be cooperatively winnable (err %v)", err)
	}
	cs, err := res.Strategy.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref := game.Reference(res.Strategy)
	if mi, mc := ref.MaxConstant(), cs.MaxConstant(); mi != mc {
		t.Errorf("interpreted MaxConstant %d, compiled %d: the two would clamp differently", mi, mc)
	}
	impl := model.ExtractPlant(f.Sys, []int{0}, "Tester")
	hello := impl.Procs[0].Edges[0].ID
	lazy := &tiots.DetPolicy{Lazy: true, ByEdge: map[int]tiots.OutputDecision{hello: {Enabled: true}}}
	opts := texec.Options{PlantProcs: []int{0}}
	for _, c := range []struct {
		name string
		iut  func() tiots.IUT
	}{
		{"lazy", func() tiots.IUT { return tiots.NewDetIUT(impl, tiots.Scale, lazy) }},
		{"eager", func() tiots.IUT { return tiots.NewDetIUT(impl, tiots.Scale, nil) }},
		{"eager-keyless", func() tiots.IUT { return keyless{tiots.NewDetIUT(impl, tiots.Scale, nil)} }},
	} {
		t.Run(c.name, func(t *testing.T) { assertSameRun(t, f.Sys, opts, ref, cs, c.iut) })
	}
}

// assertSameRun runs the reference and the compiled consultant against
// fresh implementations and requires the same verdict, reason, step count
// and trace.
func assertSameRun(t *testing.T, sys *model.System, opts texec.Options, ref, cs game.Consultant, iut func() tiots.IUT) {
	t.Helper()
	ri := texec.Run(ref, iut(), opts)
	rc := texec.Run(cs, iut(), opts)
	if ri.Verdict != rc.Verdict || ri.Reason != rc.Reason || ri.Steps != rc.Steps {
		t.Fatalf("runs diverge:\n  interpreted: %s\n  compiled:    %s", ri, rc)
	}
	if !slices.Equal(ri.Trace, rc.Trace) {
		t.Fatalf("traces diverge:\ninterpreted:\n%s\ncompiled:\n%s", ri.Trace.Format(sys, tiots.Scale), rc.Trace.Format(sys, tiots.Scale))
	}
}
