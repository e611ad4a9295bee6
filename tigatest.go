// Package tigatest is a game-theoretic testing toolkit for real-time
// systems, reproducing "A Game-Theoretic Approach to Real-Time System
// Testing" (David, Larsen, Li, Nielsen — DATE 2008).
//
// The pipeline mirrors the paper's Fig. 4:
//
//  1. Model the system under test as a Timed I/O Game Automaton network
//     (NewSystem + the model builder API, or models.SmartLight / models.LEP)
//     where inputs are controllable and outputs uncontrollable.
//  2. State a test purpose as an annotated TCTL formula,
//     e.g. "control: A<> IUT.Bright".
//  3. Synthesize a winning strategy with Synthesize (an on-the-fly timed
//     game solver in the spirit of UPPAAL-TIGA).
//  4. Execute the strategy against a black-box implementation with Test
//     (Algorithm 3.1): inputs are offered, outputs and their timing are
//     checked against the spec via the tioco relation, and the run ends in
//     pass, fail or inconclusive.
//
// Quick start:
//
//	sys := models.SmartLight()
//	res, err := tigatest.Synthesize(sys, "control: A<> IUT.Bright", nil)
//	iut := tigatest.SimulatedIUT(sys, models.SmartLightPlant(sys), nil)
//	verdict := tigatest.Test(res.Strategy, iut, models.SmartLightPlant(sys))
package tigatest

import (
	"fmt"

	"tigatest/internal/adapter"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/mutate"
	"tigatest/internal/tctl"
	"tigatest/internal/texec"
	"tigatest/internal/tioco"
	"tigatest/internal/tiots"
)

// Core model types.
type (
	// System is a network of timed I/O game automata.
	System = model.System
	// Process is one automaton of the network.
	Process = model.Process
	// Location of a process.
	Location = model.Location
	// Edge is a transition of a process.
	Edge = model.Edge
	// Guard combines clock constraints with a data predicate.
	Guard = model.Guard
	// ClockConstraint is a bound on a clock or clock difference.
	ClockConstraint = model.ClockConstraint
	// ClockReset sets a clock on an edge.
	ClockReset = model.ClockReset
	// Kind partitions actions into controllable inputs and uncontrollable
	// outputs (Def. 3 of the paper).
	Kind = model.Kind
)

// Solver and strategy types.
type (
	// Formula is a parsed test purpose (control: A<> φ / control: A[] φ).
	Formula = tctl.Formula
	// Range is a named quantifier range for formulas.
	Range = tctl.Range
	// SolveOptions configure the game solver.
	SolveOptions = game.Options
	// SolveResult carries winnability, the strategy and solver statistics.
	SolveResult = game.Result
	// Strategy is a synthesized state-based winning strategy.
	Strategy = game.Strategy
)

// Test execution types.
type (
	// IUT is the tester-facing interface of an implementation under test.
	IUT = tiots.IUT
	// DetPolicy resolves spec nondeterminism into one deterministic
	// implementation (§2.5 test hypotheses).
	DetPolicy = tiots.DetPolicy
	// OutputDecision schedules one plant output.
	OutputDecision = tiots.OutputDecision
	// TestResult is the outcome of one Algorithm 3.1 run.
	TestResult = texec.Result
	// TestOptions configure test execution.
	TestOptions = texec.Options
	// Verdict is pass/fail/inconclusive.
	Verdict = texec.Verdict
	// Monitor tracks Out(s After σ) for online tioco checking.
	Monitor = tioco.Monitor
	// Mutant is a model with one planted fault.
	Mutant = mutate.Mutant
)

// Re-exported constants.
const (
	Controllable   = model.Controllable
	Uncontrollable = model.Uncontrollable
	Emit           = model.Emit
	Receive        = model.Receive
	NoSync         = model.NoSync
	Pass           = texec.Pass
	Fail           = texec.Fail
	Inconclusive   = texec.Inconclusive
	// Scale is the default tick resolution (ticks per model time unit).
	Scale = tiots.Scale
)

// Clock-constraint helpers for building guards and invariants.
var (
	// GE builds x >= k.
	GE = model.GE
	// GT builds x > k.
	GT = model.GT
	// LE builds x <= k.
	LE = model.LE
	// LT builds x < k.
	LT = model.LT
	// EQ builds x == k (two constraints).
	EQ = model.EQ
	// DiffLE builds xi - xj <= k.
	DiffLE = model.DiffLE
	// DiffLT builds xi - xj < k.
	DiffLT = model.DiffLT
)

// NewSystem creates an empty TIOGA network; build it with AddClock,
// AddChannel, AddProcess and AddEdge.
func NewSystem(name string) *System { return model.NewSystem(name) }

// ParseFormula parses an annotated TCTL test purpose against the system.
// ranges supplies named quantifier ranges (may be nil).
func ParseFormula(sys *System, formula string, ranges map[string]Range) (*Formula, error) {
	return tctl.Parse(&tctl.ParseEnv{Sys: sys, Ranges: ranges}, formula)
}

// Synthesize parses the test purpose and solves the timed game, returning
// winnability, statistics and — for winnable reachability objectives — a
// winning strategy. opts may be nil for defaults. Synthesis explores the
// zone graph on SolveOptions.Workers goroutines and propagates winning
// sets bottom-up over the SCC condensation on
// SolveOptions.PropagationWorkers goroutines (all cores by default;
// Workers: 1 is a pool of one); the computed winning sets are
// semantically identical for every worker count.
func Synthesize(sys *System, formula string, ranges map[string]Range, opts ...SolveOptions) (*SolveResult, error) {
	f, err := ParseFormula(sys, formula, ranges)
	if err != nil {
		return nil, err
	}
	var o SolveOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return game.Solve(sys, f, o)
}

// Test executes the strategy against the implementation under Algorithm
// 3.1 and returns the verdict. plantProcs identifies the IUT processes of
// the specification model.
func Test(strat *Strategy, iut IUT, plantProcs []int) TestResult {
	return texec.Run(strat, iut, texec.Options{PlantProcs: plantProcs})
}

// TestWithOptions is Test with full control over the execution options.
func TestWithOptions(strat *Strategy, iut IUT, opts TestOptions) TestResult {
	return texec.Run(strat, iut, opts)
}

// Campaign runs the strategy n times and aggregates verdicts.
func Campaign(name string, strat *Strategy, iut IUT, n int, opts TestOptions) texec.CampaignResult {
	return texec.Campaign(name, strat, iut, n, opts)
}

// SimulatedIUT builds an in-process deterministic implementation from the
// plant part of a specification: a faithful implementation when policy is
// nil (outputs fire as soon as allowed), or any §2.5-conforming resolution
// via the policy. Use it with mutants to simulate faulty implementations.
func SimulatedIUT(spec *System, plantProcs []int, policy *DetPolicy) IUT {
	impl := model.ExtractPlant(spec, plantProcs, "TesterStub")
	return tiots.NewDetIUT(impl, tiots.Scale, policy)
}

// NewMonitor builds a standalone tioco monitor for the plant processes
// (the Out(s After σ) oracle of Algorithm 3.1), for users who drive their
// own test loop.
func NewMonitor(spec *System, plantProcs []int) (*Monitor, error) {
	return tioco.NewMonitor(spec, plantProcs, tiots.Scale)
}

// Mutants generates the standard mutation pool over the plant processes
// (at most maxPerOperator per operator; 0 = unlimited).
func Mutants(spec *System, plantProcs []int, maxPerOperator int) []*Mutant {
	return mutate.All(spec, plantProcs, maxPerOperator)
}

// ServeIUT exposes an implementation on a TCP address ("127.0.0.1:0" picks
// a free port) using the newline-JSON adapter protocol.
func ServeIUT(addr string, iut IUT) (*adapter.Server, error) {
	return adapter.Serve(addr, iut)
}

// DialIUT connects to a remotely served implementation; the returned
// client satisfies IUT and can be passed to Test.
func DialIUT(addr string) (*adapter.Client, error) {
	return adapter.Dial(addr)
}

// MutantIUT builds a simulated implementation from a mutant model.
func MutantIUT(m *Mutant, plantProcs []int, policy *DetPolicy) IUT {
	impl := model.ExtractPlant(m.Sys, plantProcs, "TesterStub")
	return tiots.NewDetIUT(impl, tiots.Scale, policy)
}

// Describe returns a short human-readable synopsis of a solve result.
func Describe(res *SolveResult) string {
	if res == nil {
		return "<nil>"
	}
	verdict := "NOT winnable"
	if res.Winnable {
		verdict = "winnable"
	}
	return fmt.Sprintf("%s: %s (%d symbolic states, %d updates, %v)",
		res.Formula, verdict, res.Stats.Nodes, res.Stats.Updates, res.Stats.Duration)
}
