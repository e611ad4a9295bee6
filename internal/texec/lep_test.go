package texec

import (
	"testing"
	"time"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/mutate"
	"tigatest/internal/tctl"
	"tigatest/internal/tiots"
)

// lepStrategy synthesizes a strategy for an observable-anchored purpose:
// the node has learned better info, forwarded it (fwd! observed) and is
// idle again. Unlike bare TP1 this cannot pass without the implementation
// actually producing its output.
func lepStrategy(t *testing.T, n int) (*model.System, *game.CompiledStrategy, []int) {
	t.Helper()
	sys := models.LEP(models.LEPOptions{Nodes: n})
	plant := models.LEPPlant(sys)
	f := tctl.MustParse(models.LEPEnv(sys, n),
		"control: A<> (IUT.betterInfo == 1) and IUT.idle")
	res, err := game.Solve(sys, f, game.Options{EarlyTermination: true, TimeBudget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Winnable {
		t.Fatal("learn-and-forward must be winnable (fwd! is invariant-forced)")
	}
	cs, err := res.CompiledStrategy()
	if err != nil {
		t.Fatal(err)
	}
	return sys, cs, plant
}

func TestLEPConformantNodePasses(t *testing.T) {
	sys, strat, plant := lepStrategy(t, 3)
	impl := model.ExtractPlant(sys, plant, "Harness")
	res := Run(strat, tiots.NewDetIUT(impl, tiots.Scale, nil), Options{PlantProcs: plant})
	if res.Verdict != Pass {
		t.Fatalf("conformant node must pass: %s\ntrace: %s", res, res.Trace.Format(sys, tiots.Scale))
	}
	// The pass must be anchored in an observed forward.
	sawFwd := false
	fwdCh, _ := sys.ChannelByName("fwd")
	for _, ev := range res.Trace {
		if !ev.IsDelay() && ev.Chan == fwdCh {
			sawFwd = true
		}
	}
	if !sawFwd {
		t.Fatalf("the passing trace must contain the observed fwd!: %s", res.Trace.Format(sys, tiots.Scale))
	}
}

func TestLEPLazyForwarderFails(t *testing.T) {
	// Widen the forward deadline and exploit it: fwd! comes later than the
	// spec's 2-unit window allows.
	sys, strat, plant := lepStrategy(t, 3)
	var mut *mutate.Mutant
	for ref := 0; ref < 4; ref++ {
		m, err := mutate.WidenInvariant(sys, plant, ref, 2)
		if err != nil {
			t.Fatal(err)
		}
		if m.Description[len("invariant of "):][:11] == "IUT.forward" {
			mut = m
			break
		}
	}
	if mut == nil {
		t.Fatal("no forward-invariant mutant found")
	}
	impl := model.ExtractPlant(mut.Sys, plant, "Harness")
	res := Run(strat, tiots.NewDetIUT(impl, tiots.Scale, mut.Policy), Options{PlantProcs: plant})
	if res.Verdict != Fail {
		t.Fatalf("lazy forwarder must fail: %s (mutant %s)", res, mut.Description)
	}
}

func TestLEPDeafNodeFails(t *testing.T) {
	// Drop the deliverBetter edge: the node ignores better info, never
	// forwards, and its silence past the forced forward deadline... never
	// enters forward at all — the strategy moves to the forward node and
	// the missing fwd! within the window is a delay violation.
	sys, strat, plant := lepStrategy(t, 3)
	var mut *mutate.Mutant
	muts := mutate.All(sys, plant, 0)
	for _, m := range muts {
		if m.Operator == "drop-edge" && containsStr(m.Description, "deliverBetter") {
			mut = m
			break
		}
	}
	if mut == nil {
		t.Fatal("no deliverBetter drop mutant found")
	}
	impl := model.ExtractPlant(mut.Sys, plant, "Harness")
	res := Run(strat, tiots.NewDetIUT(impl, tiots.Scale, mut.Policy), Options{PlantProcs: plant})
	if res.Verdict != Fail {
		t.Fatalf("deaf node must fail: %s (mutant %s)", res, mut.Description)
	}
}

func TestLEPTP2BufferFillExecution(t *testing.T) {
	// TP2's strategy mostly plays tester-internal moves (buffer
	// injections); the node's timeouts interleave. The run must pass with
	// a conformant node and the trace stays tioco-clean throughout.
	n := 3
	sys := models.LEP(models.LEPOptions{Nodes: n})
	plant := models.LEPPlant(sys)
	f := tctl.MustParse(models.LEPEnv(sys, n), models.LEPTP2)
	res, err := game.Solve(sys, f, game.Options{EarlyTermination: true, TimeBudget: time.Minute})
	if err != nil || !res.Winnable {
		t.Fatalf("TP2 solve: %v", err)
	}
	cs, err := res.CompiledStrategy()
	if err != nil {
		t.Fatal(err)
	}
	impl := model.ExtractPlant(sys, plant, "Harness")
	r := Run(cs, tiots.NewDetIUT(impl, tiots.Scale, nil), Options{PlantProcs: plant})
	if r.Verdict != Pass {
		t.Fatalf("buffer-fill strategy must pass against a conformant node: %s\ntrace: %s",
			r, r.Trace.Format(sys, tiots.Scale))
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
