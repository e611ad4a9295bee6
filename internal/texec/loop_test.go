package texec

import (
	"slices"
	"strings"
	"testing"

	"tigatest/internal/dsl"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/tctl"
	"tigatest/internal/tiots"
)

// pinger is a plant that says hello at a time of its choosing, must then
// be started at once, and from then on may ping while x <= 1. Its largest
// constant is 1; the clock y is never reset and no guard reads it, so only
// a purpose on y makes its value matter. Because hello may come at any
// time, the zone graph keeps no bound on y, and the Loop node repeats
// after every ping whatever y is.
const pinger = `
system pinger

clock x, y
chan go : input
chan hello : output
chan ping : output

process Plant {
    init Pre
    location Pre
    location Start { inv x<=0 }
    location Loop
    edge Pre -> Start on hello! do { x := 0 }
    edge Start -> Loop on go? do { x := 0 }
    edge Loop -> Loop on ping! when x<=1 do { x := 0 }
}

process Env {
    init E
    location E
    edge E -> E on go!
    edge E -> E on hello?
    edge E -> E on ping?
}
`

// pingerPurpose can only be met by waiting in Loop until y reaches 10.
const pingerPurpose = "control: A<> Plant.Loop and y >= 10"

// solvePinger synthesizes the cooperative strategy for pingerPurpose,
// interpreted and compiled, and extracts the plant.
func solvePinger(t *testing.T) (*model.System, *model.System, []game.Consultant) {
	t.Helper()
	f := dsl.MustParse(pinger)
	res, err := game.Solve(f.Sys, tctl.MustParse(f.ParseEnv(), pingerPurpose), game.Options{TreatAllControllable: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Winnable {
		t.Fatal("the pinger purpose must be cooperatively winnable")
	}
	cs, err := res.Strategy.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return f.Sys, model.ExtractPlant(f.Sys, []int{0}, "Tester"), []game.Consultant{res.Strategy, cs}
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
	sys, impl, strats := solvePinger(t)
	hello := impl.Procs[0].Edges[0].ID
	policy := &tiots.DetPolicy{Lazy: true, ByEdge: map[int]tiots.OutputDecision{hello: {Enabled: true}}}
	if mi, mc := strats[0].MaxConstant(), strats[1].MaxConstant(); mi != mc {
		t.Errorf("interpreted MaxConstant %d, compiled %d: the two would clamp differently", mi, mc)
	}
	for _, strat := range strats {
		if m := strat.MaxConstant(); m < 10 {
			t.Errorf("%T.MaxConstant() = %d, below the purpose's 10", strat, m)
		}
		res := Run(strat, tiots.NewDetIUT(impl, tiots.Scale, policy), Options{PlantProcs: []int{0}})
		if res.Verdict != Pass || res.Trace.TotalDelay() < 10*tiots.Scale {
			t.Errorf("%T: %s, want pass after 10 time units\ntrace: %s", strat, res, res.Trace.Format(sys, tiots.Scale))
		}
	}
}

// TestClosedLoopDetected runs the same purpose against the eager pinger,
// which pings at x = 0 forever while no time passes: the run must end as
// a repeating closed loop, with the budget run's verdict and a prefix of
// its trace.
func TestClosedLoopDetected(t *testing.T) {
	_, impl, strats := solvePinger(t)
	for _, strat := range strats {
		opts := Options{PlantProcs: []int{0}}
		res := Run(strat, tiots.NewDetIUT(impl, tiots.Scale, nil), opts)
		if res.Verdict != Inconclusive || !strings.HasPrefix(res.Reason, "closed loop repeats: period ") {
			t.Fatalf("%T: %s, want a repeating closed loop", strat, res)
		}
		full := Run(strat, keyless{tiots.NewDetIUT(impl, tiots.Scale, nil)}, opts)
		if full.Reason != "step budget exhausted" || full.Verdict != res.Verdict {
			t.Fatalf("%T: keyless rerun %s", strat, full)
		}
		if !slices.Equal(res.Trace, full.Trace[:len(res.Trace)]) {
			t.Fatalf("%T: looped trace is not a prefix of the budget run's", strat)
		}
	}
}
