// Package campaign turns the single-shot test machinery into a
// coverage-guided test campaign engine, the paper's future-work item of
// "evaluating strategy-based test effectiveness in terms of fault
// detecting capability" at suite scale:
//
//  1. Plan — enumerate coverage goals from the specification (plant
//     locations and observable plant edges), synthesize one reachability
//     purpose per uncovered goal through a shared game.Batch (strict game
//     first, cooperative fallback, the paper's Section 3.2 ordering), and
//     greedily drop goals already covered by an earlier strategy's play
//     footprint (game.Cover).
//  2. Execute — run every (strategy × implementation) cell on a worker
//     pool: the conformant extraction of the specification, seeded mutants
//     from internal/mutate, and optionally an adapter-hosted remote IUT;
//     each cell is repeated with per-repeat seeds derived from the
//     campaign seed.
//  3. Score — aggregate a Report: per-goal coverage, the verdict matrix,
//     per-operator mutation scores, and solver statistics, serialized as
//     canonical (byte-reproducible) JSON.
//
// Edge goals are planned shared-core by default: instead of exploring a
// ghost-instrumented clone per edge, the shared batch splits its explored
// core skeleton into per-edge ghost overlays (game.Batch.SolveEdgeGhost),
// byte-identical reports at a fraction of the exploration work; SolveVia
// content-addresses every per-goal solve so external caches (the service
// layer) can deduplicate across concurrent campaigns.
//
// Concurrency contract: Plan is single-threaded (its batch is not safe
// for concurrent use — concurrent campaigns sharing one batch must
// serialize solves inside SolveVia); Execute fans (strategy × IUT) cells
// out on Options.Workers goroutines over immutable strategies and
// per-cell fresh IUT instances, with per-repeat seeds derived from the
// campaign seed so results are schedule-independent.
package campaign

import (
	"fmt"
	"runtime"
	"time"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/tctl"
	"tigatest/internal/texec"
)

// Options configure a campaign.
type Options struct {
	// Coverage selects the goal kinds to enumerate (default: edges).
	Coverage Coverage
	// Plant are the implementation-side process indices in the
	// specification (default: texec.GuessPlantProcs).
	Plant []int
	// Mutants selects the faulty implementations: 0 generates one mutant
	// per (operator, site) pair, n > 0 samples n random mutants with the
	// campaign seed, and n < 0 disables mutation analysis.
	Mutants int
	// Workers is the number of concurrent cell executors
	// (0 = runtime.GOMAXPROCS).
	Workers int
	// Repeats runs every cell this many times with distinct derived seeds
	// (default 1). Deterministic implementations repeat identically;
	// randomized adapters and policies get fresh seeds.
	Repeats int
	// Seed makes the campaign reproducible: it drives mutant sampling and
	// the per-repeat seeds.
	Seed int64
	// Solver configures strategy synthesis.
	Solver game.Options
	// Exec configures test execution (PlantProcs defaults to Plant).
	Exec texec.Options
	// RemoteAddr optionally adds an adapter-hosted IUT row to the matrix;
	// every run dials its own connection, so the server must accept
	// concurrent sessions (adapter.ServeFactory).
	RemoteAddr string
	// DisableLazyRetry skips the lazy-determinization retry of ungranted
	// goals (outputs at window close; see StatusRecovered). Off by default:
	// the retry only ever recovers coverage the eager conformant
	// implementation raced past.
	DisableLazyRetry bool
	// DisableSharedCore solves every edge goal on its own freshly explored
	// ghost-instrumented clone (the per-clone baseline) instead of splitting
	// the shared batch's core skeleton into per-edge ghost overlays
	// (game.Batch.SolveEdgeGhost). The plan and report are identical either
	// way — only planning time and the volatile PlanStats change — so the
	// switch exists for the E7 ablation and as an escape hatch.
	DisableSharedCore bool
	// Batch optionally supplies a pre-built solver batch for the
	// specification, letting long-lived callers (the service layer) share
	// one explored skeleton across many campaigns. The batch must have been
	// built from the same System value with equivalent solver options.
	// game.Batch is not safe for concurrent use: when campaigns run
	// concurrently against one batch, SolveVia must serialize the solves it
	// is handed (the planner touches the batch only inside them).
	Batch *game.Batch
	// SolveVia, when set, intercepts every per-goal synthesis solve. The
	// planner hands it a content key and the closure that would run the
	// solve; the hook may serve the result from a cache, deduplicate
	// concurrent identical solves, or simply invoke the closure. Used by
	// the service layer to route campaign planning through its
	// content-addressed strategy cache.
	SolveVia func(key SolveKey, solve func() (*game.Result, error)) (*game.Result, error)
	// DisableIncremental solves every mutant-analysis purpose on a freshly
	// explored merged-maxima skeleton of the mutant instead of replaying
	// the shared core's clean states and re-exploring only the dirty cone
	// (game.Batch.SolveDelta). Both paths compute the same fixpoint on the
	// same graph, so the report is byte-identical either way — only
	// analysis time changes. Exists for the E10 ablation and as an escape
	// hatch; it is forwarded to Solver.DisableIncremental.
	DisableIncremental bool
	// DisableCompile executes every run through the interpreted
	// Strategy.MoveAt instead of the compiled decision tables (ablation
	// E8). Compilation is decision-equivalent, so the report is
	// byte-identical either way — only planning and execution time change.
	DisableCompile bool
	// ObserveCell, when set, receives the wall-clock duration of every
	// executed (strategy × IUT) matrix cell. Called from Execute's worker
	// goroutines, so it must be safe for concurrent use (the service
	// layer's latency histogram is). Purely observational: it must not
	// influence scheduling or results.
	ObserveCell func(d time.Duration)
}

// consultantFor returns the execution-facing view of a solved strategy:
// the compiled decision tables by default (compiled once per Result and
// shared), the interpreted strategy under the DisableCompile ablation.
// Compilation failure is impossible for the reachability strategies the
// planner synthesizes; Result.Consultant falls back to the interpreted
// oracle on any error.
func (o *Options) consultantFor(res *game.Result) game.Consultant {
	if o.DisableCompile {
		return res.Strategy
	}
	return res.Consultant()
}

func (o *Options) withDefaults(sys *model.System) Options {
	opts := *o
	if opts.Coverage == 0 {
		opts.Coverage = CoverEdges
	}
	if len(opts.Plant) == 0 {
		opts.Plant = texec.GuessPlantProcs(sys)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Repeats <= 0 {
		opts.Repeats = 1
	}
	if opts.DisableIncremental {
		opts.Solver.DisableIncremental = true
	}
	if len(opts.Exec.PlantProcs) == 0 {
		opts.Exec.PlantProcs = opts.Plant
	}
	if opts.Exec.Cancel == nil {
		// One hook cancels the whole campaign: planner goal loop, cell
		// executors and individual test runs all poll the same channel.
		opts.Exec.Cancel = opts.Solver.Cancel
	}
	return opts
}

// canceled polls a cancellation hook without blocking (nil = never fires).
// Options.Solver.Cancel doubles as the campaign-level hook: the planner
// checks it between goals, Execute between cells.
func canceled(ch <-chan struct{}) error {
	if ch == nil {
		return nil
	}
	select {
	case <-ch:
		return game.ErrCanceled
	default:
		return nil
	}
}

// Run plans, executes and scores a campaign against the specification.
// env supplies the symbols for the generated test purposes (usually
// dsl.File.ParseEnv or a models helper).
func Run(sys *model.System, env *tctl.ParseEnv, o Options) (*Report, error) {
	opts := o.withDefaults(sys)
	if len(opts.Plant) == 0 {
		return nil, fmt.Errorf("campaign: no plant processes (name them explicitly)")
	}

	t0 := time.Now()
	// The batch is hoisted out of Plan so the mutant-analysis phase reuses
	// the same explored core skeleton (and, through it, the delta-skeleton
	// and base-fixpoint caches) the planner primed.
	if opts.Batch == nil {
		batch, err := game.NewBatch(sys, opts.Solver)
		if err != nil {
			return nil, err
		}
		opts.Batch = batch
	}
	suite, err := Plan(sys, env, &opts)
	if err != nil {
		return nil, err
	}
	planMS := time.Since(t0).Milliseconds()

	t1 := time.Now()
	rows, err := BuildIUTs(sys, &opts, suite.HasLazy())
	if err != nil {
		return nil, err
	}
	matrix := Execute(suite, rows, &opts)
	execMS := time.Since(t1).Milliseconds()
	if err := canceled(opts.Solver.Cancel); err != nil {
		// Execute stopped early; a partial matrix must not masquerade as a
		// completed campaign report.
		return nil, fmt.Errorf("campaign: execution: %w", err)
	}

	t2 := time.Now()
	analyses, anStats, err := analyzeMutants(sys, env, suite, rows, &opts)
	if err != nil {
		return nil, fmt.Errorf("campaign: analysis: %w", err)
	}
	analyzeMS := time.Since(t2).Milliseconds()

	rep := assembleReport(sys, suite, rows, matrix, analyses, &opts)
	rep.Volatile = &Volatile{
		PlanMS:    planMS,
		ExecMS:    execMS,
		AnalyzeMS: analyzeMS,
		TotalMS:   time.Since(t0).Milliseconds(),
		Planning:  &suite.Stats,
		Analysis:  anStats,
	}
	return rep, nil
}
