package texec

import (
	"os"
	"slices"
	"strings"
	"testing"

	"tigatest/internal/dsl"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/tctl"
	"tigatest/internal/tiots"
)

// pinger is the plant of testdata/pinger.tga: it says hello at a time of
// its choosing, is then started and may ping while x <= 1, and no guard
// reads its never-reset clock y.
var pinger = func() string {
	src, err := os.ReadFile("testdata/pinger.tga")
	if err != nil {
		panic(err)
	}
	return string(src)
}()

// pingerPurpose can only be met by waiting in Loop until y reaches 10.
const pingerPurpose = "control: A<> Plant.Loop and y >= 10"

// solvePinger synthesizes and compiles the cooperative strategy for
// pingerPurpose, and extracts the plant.
func solvePinger(t *testing.T) (*model.System, *model.System, *game.CompiledStrategy) {
	t.Helper()
	f := dsl.MustParse(pinger)
	res, err := game.Solve(f.Sys, tctl.MustParse(f.ParseEnv(), pingerPurpose), game.Options{TreatAllControllable: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Winnable {
		t.Fatal("the pinger purpose must be cooperatively winnable")
	}
	cs, err := res.CompiledStrategy()
	if err != nil {
		t.Fatal(err)
	}
	return f.Sys, model.ExtractPlant(f.Sys, []int{0}, "Tester"), cs
}

// keyless hides the IUT's state key, as a remote adapter does.
type keyless struct{ tiots.IUT }

// TestClosedLoopPurposeConstant runs a purpose whose constant, 10, exceeds
// every model constant. The plant says hello at once and then pings
// lazily, at x = 1, so the strategy stays in one node with one stamp bound
// while y climbs one unit per ping, and the run passes only after y has
// passed the model's maximum. Clamping the tester's valuation at the
// model's constants would see a repeat at y = 2 and end the run early.
func TestClosedLoopPurposeConstant(t *testing.T) {
	sys, impl, strat := solvePinger(t)
	hello := impl.Procs[0].Edges[0].ID
	policy := &tiots.DetPolicy{Lazy: true, ByEdge: map[int]tiots.OutputDecision{hello: {Enabled: true}}}
	if m := strat.MaxConstant(); m < 10 {
		t.Errorf("MaxConstant() = %d, below the purpose's 10", m)
	}
	res := Run(strat, tiots.NewDetIUT(impl, tiots.Scale, policy), Options{PlantProcs: []int{0}})
	if res.Verdict != Pass || res.Trace.TotalDelay() < 10*tiots.Scale {
		t.Errorf("%s, want pass after 10 time units\ntrace: %s", res, res.Trace.Format(sys, tiots.Scale))
	}
}

// TestClosedLoopDetected runs the same purpose against the eager pinger,
// which pings at x = 0 forever while no time passes: the run must end as
// a repeating closed loop, with the budget run's verdict and a prefix of
// its trace.
func TestClosedLoopDetected(t *testing.T) {
	_, impl, strat := solvePinger(t)
	opts := Options{PlantProcs: []int{0}}
	res := Run(strat, tiots.NewDetIUT(impl, tiots.Scale, nil), opts)
	if res.Verdict != Inconclusive || !strings.HasPrefix(res.Reason, "closed loop repeats: period ") {
		t.Fatalf("%s, want a repeating closed loop", res)
	}
	full := Run(strat, keyless{tiots.NewDetIUT(impl, tiots.Scale, nil)}, opts)
	if full.Reason != "step budget exhausted" || full.Verdict != res.Verdict {
		t.Fatalf("keyless rerun %s", full)
	}
	if !slices.Equal(res.Trace, full.Trace[:len(res.Trace)]) {
		t.Fatal("looped trace is not a prefix of the budget run's")
	}
}
