package campaign

import (
	"sort"

	"tigatest/internal/adapter"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

// IUTFactory builds a fresh implementation instance for one test run. The
// seed parameterizes randomized implementations (deterministic ones ignore
// it); the returned closer releases per-run resources (e.g. a TCP
// connection) and may be nil.
type IUTFactory func(seed int64) (iut tiots.IUT, closer func(), err error)

// LocalIUT returns a factory interpreting the implementation network
// deterministically under the policy (both shared read-only across runs).
// scale must match the executing Runner's texec scale (0 = tiots.Scale).
func LocalIUT(impl *model.System, scale int64, policy *tiots.DetPolicy) IUTFactory {
	if scale <= 0 {
		scale = tiots.Scale
	}
	return func(int64) (tiots.IUT, func(), error) {
		return tiots.NewDetIUT(impl, scale, policy), nil, nil
	}
}

// RemoteIUT returns a factory dialing an adapter-hosted implementation.
// Every run gets its own connection, so concurrent cells need a server
// accepting concurrent sessions (adapter.ServeFactory). The per-run seed
// is forwarded over the protocol; deterministic hosts ignore it.
func RemoteIUT(addr string) IUTFactory {
	return func(seed int64) (tiots.IUT, func(), error) {
		cli, err := adapter.Dial(addr)
		if err != nil {
			return nil, nil, err
		}
		if err := cli.Seed(seed); err != nil {
			cli.Close()
			return nil, nil, err
		}
		return cli, func() { cli.Close() }, nil
	}
}

// Runner executes one strategy against implementations: the campaign cell
// runner, shared with cmd/testexec's single-run path. A Runner is
// immutable and safe for concurrent use (consultation only reads the
// compiled decision tables, building a node's rows once under a lock).
type Runner struct {
	// Strategy is the consultant runs follow: a result's compiled
	// decision tables (Result.CompiledStrategy).
	Strategy game.Consultant
	Exec     texec.Options
}

// RunOnce executes a single test run.
func (r *Runner) RunOnce(iut tiots.IUT) texec.Result {
	return texec.Run(r.Strategy, iut, r.Exec)
}

// CellTally aggregates the verdicts of one (strategy × IUT) cell.
type CellTally struct {
	Pass, Fail, Incon int
	// Reasons counts runs per "verdict: reason" key, sorted by key for
	// deterministic reports.
	Reasons []ReasonCount
}

// ReasonCount is one verdict reason with its multiplicity.
type ReasonCount struct {
	Reason string `json:"reason"`
	Count  int    `json:"count"`
}

// Verdict summarizes the tally in mutation-analysis terms: any failing run
// kills the implementation; otherwise any pass dominates inconclusive.
func (t CellTally) Verdict() texec.Verdict {
	switch {
	case t.Fail > 0:
		return texec.Fail
	case t.Pass > 0:
		return texec.Pass
	default:
		return texec.Inconclusive
	}
}

// RunCell executes the cell repeats times against fresh IUT instances,
// deriving one seed per repeat from the base seed.
func (r *Runner) RunCell(factory IUTFactory, repeats int, seed int64) CellTally {
	if repeats <= 0 {
		repeats = 1
	}
	tally := CellTally{}
	reasons := map[string]int{}
	for rep := 0; rep < repeats; rep++ {
		// A fired cancellation (request deadline) ends the cell after the
		// current repeat: texec.Run already cut that run short, and fresh
		// repeats would each burn a run just to observe the same signal.
		if rep > 0 && canceled(r.Exec.Cancel) != nil {
			break
		}
		res := r.runRep(factory, deriveSeed(seed, rep))
		switch res.Verdict {
		case texec.Pass:
			tally.Pass++
		case texec.Fail:
			tally.Fail++
		default:
			tally.Incon++
		}
		reasons[res.Verdict.String()+": "+res.Reason]++
	}
	keys := make([]string, 0, len(reasons))
	for k := range reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tally.Reasons = append(tally.Reasons, ReasonCount{Reason: k, Count: reasons[k]})
	}
	return tally
}

func (r *Runner) runRep(factory IUTFactory, seed int64) texec.Result {
	iut, closer, err := factory(seed)
	if err != nil {
		return texec.Result{Verdict: texec.Inconclusive, Reason: "iut setup: " + err.Error()}
	}
	if closer != nil {
		defer closer()
	}
	return r.RunOnce(iut)
}

// deriveSeed mixes a repeat index into the base seed (splitmix64 finalizer,
// so neighboring cells and repeats get uncorrelated streams).
func deriveSeed(seed int64, rep int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(rep+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
