package campaign

import (
	"fmt"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/tctl"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

// Goal statuses after planning.
const (
	// StatusCovered: an executed suite strategy's conformant run traverses
	// the goal.
	StatusCovered = "covered"
	// StatusUnwinnable: the goal's purpose is not winnable even
	// cooperatively, or no winnable strategy can traverse the goal.
	// Excluded from the coverable set: no test suite could cover it.
	StatusUnwinnable = "unwinnable"
	// StatusUngranted: a cooperative strategy covers the goal in the
	// game, but no conformant determinization the planner tried (eager,
	// then the lazy window-close retry) ever grants the hoped-for outputs
	// (the runs ended inconclusive). Excluded from the coverable set: the
	// implementation, not the suite, is the limiter.
	StatusUngranted = "ungranted"
	// StatusRecovered: the eager conformant determinization raced past the
	// goal (it would have been ungranted), but the lazy-but-conformant
	// retry — outputs fire at window close — granted it. The covering
	// entry is flagged Lazy and executes against the conformant-lazy
	// matrix row. Counted coverable and covered: a conformant
	// implementation attained the goal.
	StatusRecovered = "recovered"
	// StatusMissed: a winnable strategy should have attained the goal
	// but its conformant run did not pass — a campaign or solver defect.
	// Counted coverable, so it drags attained coverage below 100%.
	StatusMissed = "missed"
)

// PlannedGoal is a goal with its planning outcome.
type PlannedGoal struct {
	*Goal
	// Status is one of the Status constants above.
	Status string
	// By is the suite entry covering the goal (-1 when uncovered).
	By int
	// Reason explains an uncovered goal.
	Reason string
}

// SuiteEntry is one synthesized strategy of the campaign suite. Every
// entry is execution-verified: its strategy passed against the conformant
// implementation during planning, and the goals it covers were traversed
// by that run's trace (not merely claimed by the strategy graph).
type SuiteEntry struct {
	// Index of the entry in the suite.
	Index int
	// Purpose is the solved test purpose.
	Purpose string
	// SourceGoal names the uncovered goal that triggered synthesis.
	SourceGoal string
	// Cooperative marks fallback strategies that rely on helpful plant
	// outputs (their misses are inconclusive, never failures).
	Cooperative bool
	// Lazy marks entries admitted by the lazy-determinization retry: their
	// conformant evidence comes from the window-close implementation, so
	// execution-level confirmation reads the conformant-lazy matrix row.
	Lazy bool
	// Strategy drives test execution.
	Strategy *game.Strategy
	// ConformantTrace is the observable trace of the planning run against
	// the conformant implementation (deterministic, so it is part of the
	// canonical report).
	ConformantTrace string
	// Nodes/Transitions are the solver's explored graph size (identical
	// for every worker count, so safe for canonical reports).
	Nodes, Transitions int
	// consult is the execution-facing consultant, shared by the planning
	// run and every (row x repeat) cell of the matrix: the compiled
	// decision tables unless the DisableCompile ablation keeps the
	// interpreted strategy.
	consult game.Consultant
}

// consultant returns the entry's shared execution consultant, falling back
// to the interpreted strategy for entries constructed outside Plan.
func (e *SuiteEntry) consultant() game.Consultant {
	if e.consult != nil {
		return e.consult
	}
	return e.Strategy
}

// Suite is the planned campaign: the strategy set plus the per-goal
// coverage annotation.
type Suite struct {
	Entries []*SuiteEntry
	Goals   []*PlannedGoal
	// Stats aggregates planning effort (solve and skeleton-reuse counters).
	// Configuration-dependent — shared-core on/off changes it while leaving
	// the suite itself untouched — so reports surface it only in their
	// volatile section.
	Stats PlanStats
}

// PlanStats aggregates the solver counters of every per-goal solve the
// planner ran. When solves are routed through an external cache
// (Options.SolveVia), cached results re-report the counters of the solve
// that produced them.
type PlanStats struct {
	// Solves counts the per-goal game solves requested (strict and
	// cooperative separately).
	Solves int `json:"solves"`
	// SkeletonCoreHits/Misses count ghost-overlay solves that reused /
	// explored the un-instrumented core skeleton (shared-core planning; both
	// zero when DisableSharedCore re-explores a clone per edge goal).
	SkeletonCoreHits   int `json:"skeleton_core_hits"`
	SkeletonCoreMisses int `json:"skeleton_core_misses"`
	// SkeletonHits/Misses count per-purpose skeleton reuse inside the batch:
	// for edge goals the per-edge overlay graph (shared strict/cooperative),
	// for location goals the per-signature core graph.
	SkeletonHits   int `json:"skeleton_hits"`
	SkeletonMisses int `json:"skeleton_misses"`
	// Solver phase wall-clock totals in nanoseconds (game.Stats phase
	// timings summed over every per-goal solve; volatile by nature). When
	// solves are served from an external cache, the producing solve's
	// phases are re-reported like the counters above.
	ExploreNanos   int64 `json:"explore_nanos"`
	CondenseNanos  int64 `json:"condense_nanos"`
	PropagateNanos int64 `json:"propagate_nanos"`
	OverlayNanos   int64 `json:"overlay_nanos"`
	SolveNanos     int64 `json:"solve_nanos"`
}

func (ps *PlanStats) fold(st game.Stats) {
	ps.Solves++
	ps.SkeletonCoreHits += st.SkeletonCoreHits
	ps.SkeletonCoreMisses += st.SkeletonCoreMisses
	ps.SkeletonHits += st.SkeletonHits
	ps.SkeletonMisses += st.SkeletonMisses
	ps.ExploreNanos += int64(st.ExploreDuration)
	ps.CondenseNanos += int64(st.CondenseDuration)
	ps.PropagateNanos += int64(st.PropagateDuration)
	ps.OverlayNanos += int64(st.OverlayDuration)
	ps.SolveNanos += int64(st.Duration)
}

// SolveKey identifies one per-goal solve for external caches
// (Options.SolveVia): the canonical purpose rendering, its extrapolation
// signature, the watched edge of a ghost-overlay solve (-1 for location
// purposes) and the game mode. Together with the model's structural hash —
// which the routing layer adds, since the planner sees only one model —
// the key is a content address: equal keys denote equal solves. Mutant
// analysis solves (the incremental re-solve phase) additionally carry the
// mutant's edit-set hash against the base model; EditHash is 0 for plan
// solves of the specification itself.
type SolveKey struct {
	Purpose     string
	Signature   string
	EdgeID      int
	Cooperative bool
	EditHash    uint64
}

// Covered counts goals with StatusCovered or StatusRecovered (a conformant
// implementation attained both kinds).
func (s *Suite) Covered() int {
	n := 0
	for _, g := range s.Goals {
		if g.Status == StatusCovered || g.Status == StatusRecovered {
			n++
		}
	}
	return n
}

// Recovered counts goals the lazy-determinization retry rescued.
func (s *Suite) Recovered() int {
	n := 0
	for _, g := range s.Goals {
		if g.Status == StatusRecovered {
			n++
		}
	}
	return n
}

// HasLazy reports whether any suite entry rode the lazy determinization
// (the matrix then needs the conformant-lazy row).
func (s *Suite) HasLazy() bool {
	for _, e := range s.Entries {
		if e.Lazy {
			return true
		}
	}
	return false
}

// Coverable counts goals some test suite could cover against a conformant
// implementation: covered and recovered ones plus misses (which indicate a
// defect), excluding unwinnable and ungranted goals.
func (s *Suite) Coverable() int {
	n := 0
	for _, g := range s.Goals {
		if g.Status == StatusCovered || g.Status == StatusRecovered || g.Status == StatusMissed {
			n++
		}
	}
	return n
}

// Synthesize solves the purpose with the paper's Section 3.2 ordering:
// the strict game first and, when that is not winnable, the cooperative
// game (all plant outputs treated as helpful). The returned result is nil
// only alongside an error; an unwinnable purpose (even cooperatively)
// returns Winnable == false.
func Synthesize(sys *model.System, f *tctl.Formula, opts game.Options) (*game.Result, error) {
	strictOpts := opts
	strictOpts.TreatAllControllable = false
	res, err := game.Solve(sys, f, strictOpts)
	if err != nil {
		return nil, err
	}
	if res.Winnable {
		return res, nil
	}
	coopOpts := opts
	coopOpts.TreatAllControllable = true
	return game.Solve(sys, f, coopOpts)
}

// goalSolver resolves one game (strict or cooperative) for a goal; Plan
// builds one per goal, closing over the solve path (shared batch, ghost
// overlay, or per-clone batch) and the SolveVia routing.
type goalSolver func(coop bool) (*game.Result, error)

// synthesizeForGoal mirrors Synthesize on a shared batch, additionally
// requiring the strategy footprint (game.Cover, the may-reach play
// extraction) to contain the goal: a strict strategy that wins its
// purpose without being able to traverse the goal falls through to the
// cooperative game, whose wider footprint may still cover it.
func synthesizeForGoal(solve goalSolver, g *Goal) (*game.Result, *game.Cover, error) {
	var fallback *game.Result
	var fallbackCover *game.Cover
	for _, coop := range []bool{false, true} {
		res, err := solve(coop)
		if err != nil {
			return nil, nil, err
		}
		if !res.Winnable {
			continue
		}
		cov := res.Strategy.PlayCover()
		if g.InCover(cov) {
			return res, cov, nil
		}
		if fallback == nil {
			fallback, fallbackCover = res, cov
		}
	}
	// A winnable but goal-missing strategy is still reported (so the
	// caller can distinguish "unwinnable" from "misses the goal"); nil
	// means unwinnable.
	return fallback, fallbackCover, nil
}

// Plan enumerates goals and derives the suite by greedy, execution-backed
// subsumption: goals are visited in model order; a goal already traversed
// by an earlier entry's conformant run is recorded as covered by it;
// every still-uncovered goal triggers one synthesis (strict game first,
// cooperative fallback; edge goals on a ghost-instrumented clone). The
// candidate strategy is then executed once against the conformant
// implementation — only a passing run whose replayed trace traverses the
// goal admits the entry, which is what makes the coverage claim a
// coverage-attained claim (the feedback loop of adaptive
// specification-coverage testing).
func Plan(sys *model.System, env *tctl.ParseEnv, opts *Options) (*Suite, error) {
	goals := EnumerateGoals(sys, opts.Plant, opts.Coverage)
	batch := opts.Batch
	if batch == nil {
		var err error
		if batch, err = game.NewBatch(sys, opts.Solver); err != nil {
			return nil, err
		}
	}

	suite := &Suite{}
	// route sends a per-goal solve through the external cache when one is
	// configured (the service layer), folding the result's counters into the
	// plan statistics either way. All batch access happens inside the routed
	// closure, so a SolveVia that serializes its solves is sufficient to
	// share one batch between concurrent campaigns.
	route := func(key SolveKey, solve func() (*game.Result, error)) (*game.Result, error) {
		var (
			res *game.Result
			err error
		)
		if opts.SolveVia != nil {
			res, err = opts.SolveVia(key, solve)
		} else {
			res, err = solve()
		}
		if err == nil && res != nil {
			suite.Stats.fold(res.Stats)
		}
		return res, err
	}
	for _, g := range goals {
		suite.Goals = append(suite.Goals, &PlannedGoal{Goal: g, By: -1})
	}

	impl := model.ExtractPlant(sys, opts.Plant, "Stub")
	scale := opts.Exec.Scale
	if scale <= 0 {
		scale = tiots.Scale
	}
	var covers []*execCover // executed footprint per entry
	coveredBy := func(g *Goal) int {
		for i, ec := range covers {
			if ec.has(g) {
				return i
			}
		}
		return -1
	}
	// Deferred (not-yet-covered) goal verdicts, by goal name; a later
	// entry's trace may still override them with covered. Ungranted misses
	// keep their candidate strategy for the lazy-determinization retry.
	type miss struct {
		status, reason string
		candidate      *game.Result
	}
	misses := map[string]miss{}

	for _, pg := range suite.Goals {
		// Per-goal cancellation point: a campaign is dozens of solves and
		// conformant runs, any of which may outlive the request deadline.
		if err := canceled(opts.Solver.Cancel); err != nil {
			return nil, fmt.Errorf("campaign: planning: %w", err)
		}
		if by := coveredBy(pg.Goal); by >= 0 {
			pg.Status, pg.By = StatusCovered, by
			continue
		}
		var res *game.Result
		var cov *game.Cover
		var err error
		if pg.Kind == "edge" {
			// Edge goals solve on a ghost-instrumented clone: the purpose
			// holds exactly after the watched edge fires. By default the
			// clone is never explored — the shared batch splits its core
			// skeleton into the edge's ghost overlay (game.SolveEdgeGhost),
			// so every edge goal of a signature reuses one exploration.
			// DisableSharedCore restores the per-clone baseline: a fresh
			// two-solve (strict, cooperative) batch per edge.
			isys, f, ierr := instrumentEdge(sys, pg.EdgeID, pg.Purpose)
			if ierr != nil {
				misses[pg.Name] = miss{status: StatusMissed, reason: "instrumentation: " + ierr.Error()}
				continue
			}
			key := SolveKey{Purpose: f.String(), Signature: game.ExtrapolationSignature(sys, f), EdgeID: pg.EdgeID}
			var solve goalSolver
			if opts.DisableSharedCore {
				ib, berr := game.NewBatch(isys, opts.Solver)
				if berr != nil {
					return nil, berr
				}
				solve = func(coop bool) (*game.Result, error) {
					key.Cooperative = coop
					return route(key, func() (*game.Result, error) { return ib.Solve(f, coop) })
				}
			} else {
				solve = func(coop bool) (*game.Result, error) {
					key.Cooperative = coop
					return route(key, func() (*game.Result, error) { return batch.SolveEdgeGhost(isys, f, pg.EdgeID, coop) })
				}
			}
			res, cov, err = synthesizeForGoal(solve, pg.Goal)
		} else {
			f, perr := tctl.Parse(env, pg.Purpose)
			if perr != nil {
				misses[pg.Name] = miss{status: StatusMissed, reason: "purpose parse error: " + perr.Error()}
				continue
			}
			key := SolveKey{Purpose: f.String(), Signature: game.ExtrapolationSignature(sys, f), EdgeID: -1}
			res, cov, err = synthesizeForGoal(func(coop bool) (*game.Result, error) {
				key.Cooperative = coop
				return route(key, func() (*game.Result, error) { return batch.Solve(f, coop) })
			}, pg.Goal)
		}
		if err != nil {
			return nil, fmt.Errorf("campaign: solving %s for %s: %w", pg.Purpose, pg.Name, err)
		}
		if res == nil {
			misses[pg.Name] = miss{status: StatusUnwinnable, reason: "purpose not winnable, even cooperatively"}
			continue
		}
		if !pg.InCover(cov) {
			misses[pg.Name] = miss{status: StatusUnwinnable, reason: "every winnable strategy reaches its purpose without traversing the goal"}
			continue
		}

		// Execution check: the strategy must actually attain its goal
		// against the conformant implementation. Cooperative hopes the
		// implementation's determinization never grants die here; a
		// strict strategy missing its own goal is a defect and is
		// reported as such.
		consult := opts.consultantFor(res)
		runner := &Runner{Strategy: consult, Exec: opts.Exec}
		r := runner.RunOnce(tiots.NewDetIUT(impl, scale, nil))
		if r.Verdict != texec.Pass {
			reason := "conformant run: " + r.Verdict.String() + " (" + r.Reason + ")"
			if res.Strategy.Cooperative() && r.Verdict == texec.Inconclusive {
				misses[pg.Name] = miss{status: StatusUngranted, reason: reason, candidate: res}
			} else {
				misses[pg.Name] = miss{status: StatusMissed, reason: reason}
			}
			continue
		}
		ec := replayCover(impl, opts.Plant, r.Trace, scale)
		entry := &SuiteEntry{
			Index:           len(suite.Entries),
			Purpose:         pg.Purpose,
			SourceGoal:      pg.Name,
			Cooperative:     res.Strategy.Cooperative(),
			Strategy:        res.Strategy,
			ConformantTrace: r.Trace.Format(res.Strategy.System(), scale),
			Nodes:           res.Stats.Nodes,
			Transitions:     res.Stats.Transitions,
			consult:         consult,
		}
		suite.Entries = append(suite.Entries, entry)
		covers = append(covers, ec)
		// Covered means the REPLAYED run traversed the goal — the same
		// evidence other goals are subsumed on. A pass whose replay lacks
		// the goal (strategy-side and implementation-side tie-breaks
		// diverged) is an engine defect, not coverage.
		if ec.has(pg.Goal) {
			pg.Status, pg.By = StatusCovered, entry.Index
		} else {
			misses[pg.Name] = miss{status: StatusMissed, reason: "conformant run passed but its replayed trace does not traverse the goal"}
		}
	}

	// Sweep: deferred goals may have been traversed by a later entry; the
	// still-ungranted ones get one retry against the lazy-but-conformant
	// determinization (outputs fire at window close) — an eager plant races
	// past windows the tester needs open, a maximally patient one keeps
	// them open as long as the specification allows. Recovered goals admit
	// their candidate as a Lazy suite entry.
	type lazyCover struct {
		ec    *execCover
		entry int
	}
	var lazies []lazyCover
	lazyCoveredBy := func(g *Goal) int {
		for _, lc := range lazies {
			if lc.ec.has(g) {
				return lc.entry
			}
		}
		return -1
	}
	for _, pg := range suite.Goals {
		if err := canceled(opts.Solver.Cancel); err != nil {
			return nil, fmt.Errorf("campaign: lazy sweep: %w", err)
		}
		if pg.Status != "" {
			continue
		}
		if by := coveredBy(pg.Goal); by >= 0 {
			pg.Status, pg.By = StatusCovered, by
			continue
		}
		m, ok := misses[pg.Name]
		if ok && m.status == StatusUngranted && !opts.DisableLazyRetry {
			if by := lazyCoveredBy(pg.Goal); by >= 0 {
				pg.Status, pg.By = StatusRecovered, by
				pg.Reason = "recovered by the lazy determinization (outputs at window close)"
				continue
			}
			if m.candidate != nil {
				consult := opts.consultantFor(m.candidate)
				runner := &Runner{Strategy: consult, Exec: opts.Exec}
				r := runner.RunOnce(tiots.NewDetIUT(impl, scale, tiots.LazyPolicy()))
				if r.Verdict == texec.Pass {
					if ec := replayCover(impl, opts.Plant, r.Trace, scale); ec.has(pg.Goal) {
						entry := &SuiteEntry{
							Index:           len(suite.Entries),
							Purpose:         pg.Purpose,
							SourceGoal:      pg.Name,
							Cooperative:     m.candidate.Strategy.Cooperative(),
							Lazy:            true,
							Strategy:        m.candidate.Strategy,
							ConformantTrace: r.Trace.Format(m.candidate.Strategy.System(), scale),
							Nodes:           m.candidate.Stats.Nodes,
							Transitions:     m.candidate.Stats.Transitions,
							consult:         consult,
						}
						suite.Entries = append(suite.Entries, entry)
						lazies = append(lazies, lazyCover{ec: ec, entry: entry.Index})
						pg.Status, pg.By = StatusRecovered, entry.Index
						pg.Reason = "recovered by the lazy determinization (outputs at window close)"
						continue
					}
				}
				m.reason += "; lazy retry: " + r.Verdict.String() + " (" + r.Reason + ")"
			}
		}
		if ok {
			pg.Status, pg.Reason = m.status, m.reason
		} else {
			pg.Status = StatusUnwinnable
			pg.Reason = "every winnable strategy reaches its purpose without traversing the goal"
		}
	}
	return suite, nil
}
