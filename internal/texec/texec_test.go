package texec

import (
	"math/rand"
	"strings"
	"testing"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/mutate"
	"tigatest/internal/tctl"
	"tigatest/internal/tiots"
)

// solveLight synthesizes the Fig. 5 strategy once for the whole file.
func solveLight(t *testing.T) (*model.System, *game.CompiledStrategy) {
	t.Helper()
	s := models.SmartLight()
	f := tctl.MustParse(models.SmartLightEnv(s), models.SmartLightGoal)
	res, err := game.Solve(s, f, game.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Winnable {
		t.Fatal("smartlight must be winnable")
	}
	cs, err := res.CompiledStrategy()
	if err != nil {
		t.Fatal(err)
	}
	return s, cs
}

// lightIUT builds a simulated implementation from the light's plant with
// the given output policy.
func lightIUT(spec *model.System, policy *tiots.DetPolicy) tiots.IUT {
	impl := model.ExtractPlant(spec, models.SmartLightPlant(spec), "Tester")
	return tiots.NewDetIUT(impl, tiots.Scale, policy)
}

func TestAlgorithm31PassOnConformingASAP(t *testing.T) {
	spec, strat := solveLight(t)
	res := Run(strat, lightIUT(spec, nil), Options{PlantProcs: models.SmartLightPlant(spec)})
	if res.Verdict != Pass {
		t.Fatalf("conformant (fire-asap) implementation must pass, got %s\ntrace: %s",
			res, res.Trace.Format(spec, tiots.Scale))
	}
}

func TestAlgorithm31PassAcrossOutputTimings(t *testing.T) {
	// The paper's "timing uncertainty of outputs": any fixed offset within
	// the allowed window is a conformant implementation and must pass.
	spec, strat := solveLight(t)
	for _, offs := range []int64{0, tiots.Scale / 4, tiots.Scale, 2*tiots.Scale - 1} {
		policy := &tiots.DetPolicy{ByEdge: map[int]tiots.OutputDecision{}}
		for _, p := range spec.Procs {
			for _, e := range p.Edges {
				if e.Dir == model.Emit {
					policy.ByEdge[e.ID] = tiots.OutputDecision{Enabled: true, Offset: offs}
				}
			}
		}
		res := Run(strat, lightIUT(spec, policy), Options{PlantProcs: models.SmartLightPlant(spec)})
		if res.Verdict != Pass {
			t.Fatalf("offset %d: conformant implementation must pass, got %s\ntrace: %s",
				offs, res, res.Trace.Format(spec, tiots.Scale))
		}
	}
}

func TestAlgorithm31PassOnDifferentOutputChoices(t *testing.T) {
	// In L5 the light may pick bright over dim: prioritize dim globally,
	// then bright globally; both are conformant resolutions.
	spec, strat := solveLight(t)
	dimCh, _ := spec.ChannelByName("dim")
	brightCh, _ := spec.ChannelByName("bright")
	for name, prefer := range map[string]int{"prefer-dim": dimCh, "prefer-bright": brightCh} {
		policy := &tiots.DetPolicy{Priority: map[int]int{}}
		for _, p := range spec.Procs {
			for _, e := range p.Edges {
				if e.Dir == model.Emit && e.Chan == prefer {
					policy.Priority[e.ID] = -1
				}
			}
		}
		res := Run(strat, lightIUT(spec, policy), Options{PlantProcs: models.SmartLightPlant(spec)})
		if res.Verdict != Pass {
			t.Fatalf("%s: conformant implementation must pass, got %s", name, res)
		}
	}
}

func TestFailOnWrongOutput(t *testing.T) {
	// Mutant: swap an output channel; the monitor must flag the wrong
	// action (Theorem 10 direction: fail implies non-conformance, so a
	// planted non-conformance should be detectable as fail).
	spec, strat := solveLight(t)
	plant := models.SmartLightPlant(spec)
	m, err := mutate.SwapOutput(spec, plant, 0)
	if err != nil {
		t.Fatal(err)
	}
	impl := model.ExtractPlant(m.Sys, plant, "Tester")
	res := Run(strat, tiots.NewDetIUT(impl, tiots.Scale, nil), Options{PlantProcs: plant})
	if res.Verdict != Fail {
		t.Fatalf("wrong-output mutant must fail, got %s (mutant: %s)", res, m.Description)
	}
	if !strings.Contains(res.Reason, "output") {
		t.Errorf("failure reason should mention the output: %s", res.Reason)
	}
}

func TestFailOnLateOutput(t *testing.T) {
	// Mutant: widen the L1 invariant so the implementation may dim later
	// than the spec allows; with a policy that exploits the wider window
	// the monitor must catch the late output as a delay violation.
	spec, strat := solveLight(t)
	plant := models.SmartLightPlant(spec)
	// Find a location with an invariant (the L-locations).
	m, err := mutate.WidenInvariant(spec, plant, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	impl := model.ExtractPlant(m.Sys, plant, "Tester")
	// Make every output lazy: fire 4 units after its window opens — legal
	// in the widened mutant, illegal per the spec's Tp<=2 invariant.
	policy := &tiots.DetPolicy{ByEdge: map[int]tiots.OutputDecision{}}
	for _, p := range impl.Procs {
		for _, e := range p.Edges {
			if e.Dir == model.Emit {
				policy.ByEdge[e.ID] = tiots.OutputDecision{Enabled: true, Offset: 4 * tiots.Scale}
			}
		}
	}
	res := Run(strat, tiots.NewDetIUT(impl, tiots.Scale, policy), Options{PlantProcs: plant})
	if res.Verdict != Fail {
		t.Fatalf("late-output mutant must fail, got %s (mutant: %s)", res, m.Description)
	}
}

func TestFailOnQuiescentImplementation(t *testing.T) {
	// An implementation that never produces outputs violates the forced
	// deadlines (invariants): Algorithm 3.1 must fail it on a delay.
	spec, strat := solveLight(t)
	plant := models.SmartLightPlant(spec)
	impl := model.ExtractPlant(spec, plant, "Tester")
	policy := &tiots.DetPolicy{ByEdge: map[int]tiots.OutputDecision{}}
	for _, p := range impl.Procs {
		for _, e := range p.Edges {
			if e.Dir == model.Emit {
				policy.ByEdge[e.ID] = tiots.OutputDecision{Enabled: false}
			}
		}
	}
	res := Run(strat, tiots.NewDetIUT(impl, tiots.Scale, policy), Options{PlantProcs: plant})
	if res.Verdict != Fail {
		t.Fatalf("quiescent implementation must fail, got %s", res)
	}
}

func TestSoundnessRandomizedCampaign(t *testing.T) {
	// Theorem 10 experiment: conformant implementations never fail. Try
	// many random conformant policies (offsets within windows, random
	// priorities).
	spec, strat := solveLight(t)
	plant := models.SmartLightPlant(spec)
	rng := rand.New(rand.NewSource(2008))
	for trial := 0; trial < 60; trial++ {
		policy := &tiots.DetPolicy{ByEdge: map[int]tiots.OutputDecision{}, Priority: map[int]int{}}
		for _, p := range spec.Procs {
			for _, e := range p.Edges {
				if e.Dir != model.Emit {
					continue
				}
				// Offsets within [0, 2) keep the output inside Tp<=2.
				policy.ByEdge[e.ID] = tiots.OutputDecision{
					Enabled: true,
					Offset:  rng.Int63n(2 * tiots.Scale),
				}
				policy.Priority[e.ID] = rng.Intn(10)
			}
		}
		res := Run(strat, lightIUT(spec, policy), Options{PlantProcs: plant})
		if res.Verdict == Fail {
			t.Fatalf("trial %d: conformant implementation failed (soundness violation!): %s\ntrace: %s",
				trial, res, res.Trace.Format(spec, tiots.Scale))
		}
		if res.Verdict != Pass {
			t.Fatalf("trial %d: winning strategy must reach the purpose: %s", trial, res)
		}
	}
}

func TestPartialCompletenessMutationCampaign(t *testing.T) {
	// Theorem 11 experiment: mutants that break the strategy-constrained
	// behaviour produce a failing run. Not every mutant is non-conformant
	// on the tested path (some defects hide outside it), so assert a
	// meaningful kill rate and, critically, that every fail is genuine.
	spec, strat := solveLight(t)
	plant := models.SmartLightPlant(spec)
	muts := mutate.All(spec, plant, 4)
	if len(muts) < 10 {
		t.Fatalf("expected a reasonable mutant pool, got %d", len(muts))
	}
	killed, passed := 0, 0
	for _, m := range muts {
		impl := model.ExtractPlant(m.Sys, plant, "Tester")
		res := Run(strat, tiots.NewDetIUT(impl, tiots.Scale, nil), Options{PlantProcs: plant})
		switch res.Verdict {
		case Fail:
			killed++
		case Pass:
			passed++
		default:
			// Inconclusive is acceptable for mutants that break the play
			// without emitting an illegal observable (e.g. dropped inputs).
		}
	}
	t.Logf("mutation campaign: %d mutants, %d killed, %d passed", len(muts), killed, passed)
	if killed == 0 {
		t.Fatal("no mutant killed: the test machinery has no fault-detection power")
	}
}

func TestCampaignAggregation(t *testing.T) {
	spec, strat := solveLight(t)
	plant := models.SmartLightPlant(spec)
	cr := Campaign("asap", strat, lightIUT(spec, nil), 5, Options{PlantProcs: plant})
	if cr.Runs != 5 || cr.Pass != 5 || cr.Killed() {
		t.Fatalf("campaign aggregation wrong: %+v", cr)
	}
}

func TestGuessPlantProcs(t *testing.T) {
	spec := models.SmartLight()
	got := GuessPlantProcs(spec)
	want := models.SmartLightPlant(spec)
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("GuessPlantProcs = %v, want %v", got, want)
	}
}

func TestVerdictStrings(t *testing.T) {
	if Pass.String() != "pass" || Fail.String() != "fail" || Inconclusive.String() != "inconclusive" {
		t.Fatal("verdict strings wrong")
	}
}
