// Package texec implements Algorithm 3.1 of the paper: strategy-guided
// conformance test execution. A winning strategy is consulted step by step;
// inputs it prescribes are offered to the implementation under test, waits
// let virtual time pass, and every observed output and delay is checked
// against the specification through the tioco monitor. Reaching the test
// purpose yields pass, a tioco violation yields fail; cooperative
// strategies (and internal errors) may end inconclusive.
//
// Key entry points: Run drives one strategy consultant (a compiled
// game.CompiledStrategy; tests substitute the interpreted reference
// through game.Consultant) against one tiots.IUT under Options (plant processes, tick scale, per-run seed);
// GuessPlantProcs picks the implementation-side processes by
// output-emission convention.
// Run is pure apart from the IUT it drives: strategies and specifications
// are only read, so any number of runs may share them concurrently as
// long as every run gets its own IUT instance.
package texec

import (
	"bytes"
	"fmt"
	"slices"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/tioco"
	"tigatest/internal/tiots"
)

// Verdict of a test run.
type Verdict int

const (
	Pass Verdict = iota
	Fail
	Inconclusive
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Fail:
		return "fail"
	default:
		return "inconclusive"
	}
}

// Options configure test execution.
type Options struct {
	// PlantProcs are the indices of the implementation-side processes in
	// the specification model (the IUT of Fig. 4).
	PlantProcs []int
	// Scale is ticks per model time unit (default tiots.Scale).
	Scale int64
	// MaxSteps bounds the number of strategy decisions (default 10000).
	// A run that exhausts it ends inconclusive "step budget exhausted".
	// Against an IUT that implements tiots.StateKeyer (every local
	// DetIUT) a closed loop that repeats ends earlier, inconclusive
	// "closed loop repeats: period p from step k", the budget run's
	// verdict with its trace cut after one full period; remote and other
	// keyless IUTs still play to the budget.
	MaxSteps int
	// Cancel, when non-nil, aborts the run cooperatively: Run polls it
	// before every strategy decision and returns an inconclusive
	// "canceled" verdict once the channel closes (an expired request
	// deadline in the service layer, SIGINT in the CLIs).
	Cancel <-chan struct{}
}

// Result of one test run.
type Result struct {
	Verdict Verdict
	Reason  string
	Trace   tiots.Trace
	Steps   int
}

func (r Result) String() string {
	return fmt.Sprintf("%s (%s) after %d steps", r.Verdict, r.Reason, r.Steps)
}

// Run executes one strategy-guided test against the implementation,
// following Algorithm 3.1.
func Run(strat game.Consultant, iut tiots.IUT, opts Options) Result {
	sys := strat.System()
	if opts.Scale <= 0 {
		opts.Scale = tiots.Scale
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 10000
	}
	if len(opts.PlantProcs) == 0 {
		opts.PlantProcs = GuessPlantProcs(sys)
	}
	mon, err := tioco.NewMonitor(sys, opts.PlantProcs, opts.Scale)
	if err != nil {
		return Result{Verdict: Inconclusive, Reason: err.Error()}
	}
	iut.Reset()

	scale := opts.Scale
	node := strat.InitialNode()
	val := make([]int64, sys.NumClocks()-1)
	bound := strat.StampAt(node, val, scale)
	var trace tiots.Trace
	loop := newLoopCheck(strat, iut, mon, scale)

	fail := func(reason string, steps int) Result {
		return Result{Verdict: Fail, Reason: reason, Trace: trace, Steps: steps}
	}
	inconclusive := func(reason string, steps int) Result {
		return Result{Verdict: Inconclusive, Reason: reason, Trace: trace, Steps: steps}
	}

	// observeOutput handles an output that occurred `after` ticks into a
	// wait; it returns a non-nil verdict pointer to stop the run.
	observeOutput := func(out *tiots.Output, steps int) (*Result, bool) {
		// Time passed before the output.
		if out.After > 0 {
			if err := mon.Delay(out.After); err != nil {
				r := fail(err.Error(), steps)
				return &r, false
			}
			for i := range val {
				val[i] += out.After
			}
			trace = append(trace, tiots.Event{Delay: out.After, Chan: -1})
		}
		if err := mon.Output(out.Chan); err != nil {
			r := fail(err.Error(), steps)
			return &r, false
		}
		trace = append(trace, tiots.Event{Chan: out.Chan, Kind: model.Uncontrollable})
		// Follow the strategy graph.
		trans, target, ferr := strat.FollowTransition(node, out.Chan, val, scale)
		if ferr != nil {
			r := inconclusive("strategy graph does not cover allowed output: "+ferr.Error(), steps)
			return &r, false
		}
		game.ResetClocks(trans, val, scale)
		node = target
		bound = strat.StampAt(node, val, scale)
		return nil, true
	}

	for steps := 0; steps < opts.MaxSteps; steps++ {
		if opts.Cancel != nil {
			select {
			case <-opts.Cancel:
				return inconclusive("canceled", steps)
			default:
			}
		}
		if strat.InGoal(node, val, scale) {
			return Result{Verdict: Pass, Reason: "test purpose satisfied", Trace: trace, Steps: steps}
		}
		if bound < 0 {
			if strat.Cooperative() {
				// A conformant plant chose a branch the cooperative
				// strategy merely hoped to avoid: nobody is to blame.
				return inconclusive("cooperative strategy: plant moved outside the hoped-for region", steps)
			}
			return inconclusive("play left the winning region (solver or adapter defect)", steps)
		}
		if loop.keyer != nil && loop.repeats(steps, node, bound, val) {
			return inconclusive(fmt.Sprintf("closed loop repeats: period %d from step %d", steps-loop.at, loop.at), steps)
		}
		mv, err := strat.MoveAt(node, val, scale, bound)
		if err != nil {
			return inconclusive(err.Error(), steps)
		}
		switch mv.Kind {
		case game.MoveGoal:
			return Result{Verdict: Pass, Reason: "test purpose satisfied", Trace: trace, Steps: steps}

		case game.MoveAction:
			if mv.Trans.Chan < 0 || sys.Channels[mv.Trans.Chan].Kind != model.Controllable {
				// Environment-internal move: advances the strategy state
				// without interacting with the IUT.
				game.ResetClocks(mv.Trans, val, scale)
				node = mv.Target
				bound = strat.StampAt(node, val, scale)
				continue
			}
			// "input i": send i to I (Algorithm 3.1, line 5).
			if err := iut.Offer(mv.Trans.Chan); err != nil {
				return inconclusive("adapter error: "+err.Error(), steps)
			}
			if err := mon.Input(mv.Trans.Chan); err != nil {
				return inconclusive(err.Error(), steps)
			}
			trace = append(trace, tiots.Event{Chan: mv.Trans.Chan, Kind: model.Controllable})
			game.ResetClocks(mv.Trans, val, scale)
			node = mv.Target
			bound = strat.StampAt(node, val, scale)

		case game.MoveWait:
			// "delay d": wait, watching for outputs (lines 7-15).
			d := mv.WaitTicks
			out := iut.Advance(d)
			if out == nil {
				if err := mon.Delay(d); err != nil {
					return fail(err.Error(), steps)
				}
				for i := range val {
					val[i] += d
				}
				trace = append(trace, tiots.Event{Delay: d, Chan: -1})
				if mv.Hoped != nil {
					// Cooperative hope expired: the plant did not help.
					return inconclusive("cooperative strategy: plant did not produce "+mv.Hoped.Label, steps)
				}
				continue
			}
			if res, ok := observeOutput(out, steps); !ok {
				return *res
			}

		default:
			return inconclusive("strategy has no move", steps)
		}
	}
	return inconclusive("step budget exhausted", opts.MaxSteps)
}

// loopCheck finds a closed loop that repeats, by Brent's cycle detection
// over the state at each decision: the strategy node, the stamp bound, the
// tester's valuation, the IUT's key and the monitor's. It saves one
// snapshot at steps 1, 2, 4, 8, … and compares every later decision with
// it, so a loop entered by step k with period p is found by step
// 2·max(k, p). The comparison goes cheapest field first and builds the
// IUT and monitor keys only when node, bound and valuation match, so a
// steady-state step allocates nothing and costs a few integer compares.
//
// Each component abstracts clocks above the largest constant it compares
// them against (tiots.AppendClockKey): the strategy's own (purpose atoms
// included), the IUT's system and the specification. Equal states then
// take the same decisions, see the same outputs at the same instants and
// get the same monitor verdicts forever, so the run would end "step budget
// exhausted" and no pass or fail is lost.
//
// The tester's clamp comes from the strategy's MaxConstant, which builds
// a compiled strategy's whole table, so sameValuation reads it only when
// no cheaper comparison decides (see there).
type loopCheck struct {
	keyer tiots.StateKeyer // nil: the IUT cannot key its state
	strat game.Consultant
	mon   *tioco.Monitor
	scale int64
	// floor is the clamp at MaxConstant 0, a lower bound of the exact
	// clamp; clamp is the exact threshold, 0 until first needed.
	floor, clamp int64
	// at is the snapshot's step (-1 before the first), next the step of
	// the next checkpoint.
	at, next    int
	node, bound int
	val         []int64
	iutKey      []byte
	monKey      []byte
	buf         []byte
}

// newLoopCheck only records its arguments: runs that end before the first
// checkpoint pay nothing for it.
func newLoopCheck(strat game.Consultant, iut tiots.IUT, mon *tioco.Monitor, scale int64) loopCheck {
	keyer, _ := iut.(tiots.StateKeyer)
	return loopCheck{keyer: keyer, strat: strat, mon: mon, scale: scale, at: -1, next: 1}
}

// repeats reports whether the state at decision step equals the snapshot,
// and saves the state as the new snapshot at a checkpoint.
func (c *loopCheck) repeats(step, node, bound int, val []int64) bool {
	if c.at >= 0 && node == c.node && bound == c.bound && c.sameValuation(val) {
		c.buf = c.keyer.AppendStateKey(c.buf[:0])
		if bytes.Equal(c.buf, c.iutKey) {
			c.buf = c.mon.AppendStateKey(c.buf[:0])
			if bytes.Equal(c.buf, c.monKey) {
				return true
			}
		}
	}
	if step == c.next {
		if c.at < 0 {
			c.setup(len(val))
		}
		c.at, c.next = step, 2*step
		c.node, c.bound = node, bound
		c.val = append(c.val[:0], val...)
		c.iutKey = c.keyer.AppendStateKey(c.iutKey[:0])
		c.monKey = c.mon.AppendStateKey(c.monKey[:0])
	}
	return false
}

// sameValuation reports whether val and the snapshot's valuation have
// equal keys at the exact clamp, tiots.SameClockKey(val, c.val, clamp),
// in three exact steps. Equal keys at a threshold are equal at every
// lower one, and the floor is at most the clamp because MaxConstant is
// never negative, so:
//  1. valuations that differ at the floor differ at the clamp;
//  2. equal valuations are equal at any threshold;
//  3. only the rest, equal at the floor but not equal, are compared at
//     the clamp, computed from MaxConstant the first time.
func (c *loopCheck) sameValuation(val []int64) bool {
	if !tiots.SameClockKey(val, c.val, c.floor) {
		return false
	}
	if slices.Equal(val, c.val) {
		return true
	}
	if c.clamp == 0 {
		c.clamp = tiots.ClockClamp(c.strat.System(), c.strat.MaxConstant(), c.scale)
	}
	return tiots.SameClockKey(val, c.val, c.clamp)
}

// setup computes the floor of the tester's clamp and allocates the
// snapshot buffers before the first checkpoint. One array backs the three
// key buffers, sized for a single-hypothesis key of the specification
// (locations, a variable allowance, clocks and their differences); a key
// that outgrows its third moves out on its own.
func (c *loopCheck) setup(clocks int) {
	sys := c.strat.System()
	c.floor = tiots.ClockClamp(sys, 0, c.scale)
	c.val = make([]int64, 0, clocks)
	size := 8*len(sys.Procs) + 64 + 4*clocks*(clocks+1)
	keys := make([]byte, 3*size)
	c.iutKey, c.monKey, c.buf = keys[:0:size], keys[size:size:2*size], keys[2*size:2*size]
}

// GuessPlantProcs returns the processes that emit on uncontrollable
// channels or receive on controllable ones — the conventional shape of the
// IUT part of a specification.
func GuessPlantProcs(sys *model.System) []int {
	var out []int
	for pi, p := range sys.Procs {
		isPlant := false
		for _, e := range p.Edges {
			if e.Dir == model.Emit && sys.Channels[e.Chan].Kind == model.Uncontrollable {
				isPlant = true
			}
			if e.Dir == model.Receive && sys.Channels[e.Chan].Kind == model.Controllable {
				isPlant = true
			}
		}
		if isPlant {
			out = append(out, pi)
		}
	}
	return out
}

// CampaignResult aggregates verdicts over repeated runs.
type CampaignResult struct {
	Name    string
	Runs    int
	Pass    int
	Fail    int
	Incon   int
	Reasons map[string]int
}

// Campaign runs the strategy n times against the implementation (useful
// when the adapter or policy is randomized) and aggregates verdicts.
func Campaign(name string, strat game.Consultant, iut tiots.IUT, n int, opts Options) CampaignResult {
	cr := CampaignResult{Name: name, Runs: n, Reasons: map[string]int{}}
	for i := 0; i < n; i++ {
		res := Run(strat, iut, opts)
		switch res.Verdict {
		case Pass:
			cr.Pass++
		case Fail:
			cr.Fail++
		default:
			cr.Incon++
		}
		cr.Reasons[res.Verdict.String()+": "+res.Reason]++
	}
	return cr
}

// Killed reports whether any run failed (mutation-analysis terminology).
func (cr CampaignResult) Killed() bool { return cr.Fail > 0 }
