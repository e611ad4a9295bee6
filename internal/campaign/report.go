package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"tigatest/internal/model"
)

// Report is the aggregated campaign outcome. Every field outside Volatile
// is deterministic for a fixed (model, options, seed) — goal and matrix
// orders follow model order, reason lists are sorted, and no map is
// serialized — so the canonical JSON is byte-identical across runs and
// cell-worker counts. Volatile holds wall-clock measurements and is
// omitted from canonical serialization.
type Report struct {
	Model    string          `json:"model"`
	Coverage string          `json:"coverage"`
	Seed     int64           `json:"seed"`
	Repeats  int             `json:"repeats"`
	Plant    []string        `json:"plant"`
	Goals    []GoalReport    `json:"goals"`
	Suite    []EntryReport   `json:"suite"`
	Summary  Summary         `json:"summary"`
	Matrix   []RowReport     `json:"matrix"`
	Mutation *MutationReport `json:"mutation,omitempty"`
	Volatile *Volatile       `json:"volatile,omitempty"`
}

// GoalReport is one goal's planning and execution outcome.
type GoalReport struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Status string `json:"status"`
	// By is the covering suite entry (-1 when uncoverable).
	By     int    `json:"by"`
	Reason string `json:"reason,omitempty"`
	// Attained reports that the covering entry passed against the
	// conformant implementation (execution-level confirmation of the
	// planned coverage).
	Attained bool `json:"attained"`
}

// EntryReport describes one suite strategy.
type EntryReport struct {
	Index       int    `json:"index"`
	Purpose     string `json:"purpose"`
	SourceGoal  string `json:"source_goal"`
	Cooperative bool   `json:"cooperative"`
	// Lazy marks entries admitted by the lazy-determinization retry; their
	// conformant evidence lives in the conformant-lazy matrix row.
	Lazy        bool `json:"lazy,omitempty"`
	Nodes       int  `json:"nodes"`
	Transitions int  `json:"transitions"`
	// ConformantTrace is the (deterministic) observable trace of the
	// planning run against the conformant implementation.
	ConformantTrace string   `json:"conformant_trace"`
	Goals           []string `json:"goals"`
}

// Summary is the headline coverage arithmetic. Recovered counts the subset
// of covered goals only the lazy-determinization retry granted.
type Summary struct {
	Goals       int     `json:"goals"`
	Coverable   int     `json:"coverable"`
	Covered     int     `json:"covered"`
	Recovered   int     `json:"recovered"`
	CoveragePct float64 `json:"coverage_pct"`
	Attained    int     `json:"attained"`
	AttainedPct float64 `json:"attained_pct"`
	SuiteSize   int     `json:"suite_size"`
}

// RowReport is one implementation's verdict row.
type RowReport struct {
	IUT      string       `json:"iut"`
	Operator string       `json:"operator,omitempty"`
	Cells    []CellReport `json:"cells"`
	// Analysis is the incremental re-solve verdict of a mutant row (nil
	// for the conformant, lazy and remote rows). Deterministic — identical
	// for every worker count and for the game.Options.DisableIncremental
	// ablation — so it is part of the canonical report.
	Analysis *RowAnalysis `json:"analysis,omitempty"`
}

// CellReport is one (implementation × strategy) verdict tally.
type CellReport struct {
	Entry   int           `json:"entry"`
	Pass    int           `json:"pass"`
	Fail    int           `json:"fail"`
	Incon   int           `json:"incon"`
	Reasons []ReasonCount `json:"reasons"`
}

// OperatorScore is the mutation score of one operator.
type OperatorScore struct {
	Operator string  `json:"operator"`
	Mutants  int     `json:"mutants"`
	Killed   int     `json:"killed"`
	Score    float64 `json:"score"`
}

// MutationReport aggregates fault-detection effectiveness: a mutant is
// killed when any suite strategy fails it.
type MutationReport struct {
	Operators []OperatorScore `json:"operators"`
	Mutants   int             `json:"mutants"`
	Killed    int             `json:"killed"`
	Score     float64         `json:"score"`
}

// Volatile holds run- and configuration-dependent diagnostics: wall-clock
// measurements and the planner's effort counters (solves, shared-core
// skeleton reuse — shared-core on/off changes them while leaving the plan
// itself untouched). It is stripped from canonical JSON so reports stay
// byte-reproducible across runs and planner configurations.
type Volatile struct {
	PlanMS    int64 `json:"plan_ms"`
	ExecMS    int64 `json:"exec_ms"`
	AnalyzeMS int64 `json:"analyze_ms"`
	TotalMS   int64 `json:"total_ms"`
	// Planning aggregates the per-goal solver counters (see PlanStats).
	Planning *PlanStats `json:"planning,omitempty"`
	// Analysis aggregates the mutant-analysis solver counters (nil when the
	// matrix has no mutant rows or the suite is empty).
	Analysis *PlanStats `json:"analysis,omitempty"`
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 100
	}
	return 100 * float64(part) / float64(whole)
}

// assembleReport folds plan, matrix and mutant analysis into the Report.
// analyses may be nil (no mutant rows) or hold nil entries (non-mutant
// rows).
func assembleReport(sys *model.System, suite *Suite, rows []*IUTRow, matrix [][]CellTally, analyses []*RowAnalysis, opts *Options) *Report {
	rep := &Report{
		Model:    sys.Name,
		Coverage: opts.Coverage.String(),
		Seed:     opts.Seed,
		Repeats:  opts.Repeats,
	}
	for _, pi := range opts.Plant {
		rep.Plant = append(rep.Plant, sys.Procs[pi].Name)
	}

	// Execution-level confirmation of a goal reads the conformant row its
	// covering entry planned against: eager entries row 0, lazy entries the
	// conformant-lazy row.
	lazyRowIdx := -1
	for ri, row := range rows {
		if row.Name == LazyRowName {
			lazyRowIdx = ri
		}
	}
	confRow := func(e *SuiteEntry) int {
		if e.Lazy {
			return lazyRowIdx
		}
		return 0
	}

	entryGoals := make([][]string, len(suite.Entries))
	attained := 0
	for _, pg := range suite.Goals {
		gr := GoalReport{Name: pg.Name, Kind: pg.Kind, Status: pg.Status, By: pg.By, Reason: pg.Reason}
		if pg.By >= 0 {
			entryGoals[pg.By] = append(entryGoals[pg.By], pg.Name)
			if ri := confRow(suite.Entries[pg.By]); ri >= 0 && len(matrix) > ri && matrix[ri][pg.By].Pass > 0 {
				gr.Attained = true
				attained++
			}
		}
		rep.Goals = append(rep.Goals, gr)
	}
	for _, e := range suite.Entries {
		rep.Suite = append(rep.Suite, EntryReport{
			Index:           e.Index,
			Purpose:         e.Purpose,
			SourceGoal:      e.SourceGoal,
			Cooperative:     e.Cooperative,
			Lazy:            e.Lazy,
			Nodes:           e.Nodes,
			Transitions:     e.Transitions,
			ConformantTrace: e.ConformantTrace,
			Goals:           entryGoals[e.Index],
		})
	}
	covered, coverable := suite.Covered(), suite.Coverable()
	rep.Summary = Summary{
		Goals:       len(suite.Goals),
		Coverable:   coverable,
		Covered:     covered,
		Recovered:   suite.Recovered(),
		CoveragePct: pct(covered, coverable),
		Attained:    attained,
		AttainedPct: pct(attained, coverable),
		SuiteSize:   len(suite.Entries),
	}

	type opTally struct{ mutants, killed int }
	ops := map[string]*opTally{}
	for ri, row := range rows {
		rr := RowReport{IUT: row.Name, Operator: row.Operator}
		if ri < len(analyses) {
			rr.Analysis = analyses[ri]
		}
		killed := false
		for ei := range suite.Entries {
			t := matrix[ri][ei]
			rr.Cells = append(rr.Cells, CellReport{
				Entry: ei, Pass: t.Pass, Fail: t.Fail, Incon: t.Incon, Reasons: t.Reasons,
			})
			killed = killed || t.Fail > 0
		}
		rep.Matrix = append(rep.Matrix, rr)
		if row.Operator != "" {
			ot := ops[row.Operator]
			if ot == nil {
				ot = &opTally{}
				ops[row.Operator] = ot
			}
			ot.mutants++
			if killed {
				ot.killed++
			}
		}
	}
	if len(ops) > 0 {
		names := make([]string, 0, len(ops))
		for op := range ops {
			names = append(names, op)
		}
		sort.Strings(names)
		mr := &MutationReport{}
		for _, op := range names {
			ot := ops[op]
			mr.Operators = append(mr.Operators, OperatorScore{
				Operator: op, Mutants: ot.mutants, Killed: ot.killed, Score: pct(ot.killed, ot.mutants),
			})
			mr.Mutants += ot.mutants
			mr.Killed += ot.killed
		}
		mr.Score = pct(mr.Killed, mr.Mutants)
		rep.Mutation = mr
	}
	return rep
}

// WriteJSON serializes the report. The canonical form (includeVolatile ==
// false) strips wall-clock measurements and is byte-identical across runs
// with the same model, options and seed.
func (r *Report) WriteJSON(w io.Writer, includeVolatile bool) error {
	out := *r
	if !includeVolatile {
		out.Volatile = nil
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Render prints a human summary of the report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "campaign %s: coverage=%s seed=%d repeats=%d\n", r.Model, r.Coverage, r.Seed, r.Repeats)
	fmt.Fprintf(w, "  goals: %d (%d coverable), covered %d (%.0f%%, %d lazily recovered), attained %d (%.0f%%)\n",
		r.Summary.Goals, r.Summary.Coverable, r.Summary.Covered, r.Summary.CoveragePct,
		r.Summary.Recovered, r.Summary.Attained, r.Summary.AttainedPct)
	fmt.Fprintf(w, "  suite: %d strategies\n", r.Summary.SuiteSize)
	for _, e := range r.Suite {
		mode := "strict"
		if e.Cooperative {
			mode = "cooperative"
		}
		if e.Lazy {
			mode += "+lazy"
		}
		fmt.Fprintf(w, "    [%d] %-44s %-16s %3d states  covers %d goals\n",
			e.Index, e.Purpose, mode, e.Nodes, len(e.Goals))
	}
	for _, g := range r.Goals {
		if g.Status != StatusCovered {
			fmt.Fprintf(w, "  %s: %s (%s)\n", g.Status, g.Name, g.Reason)
		}
	}
	if r.Mutation != nil {
		fmt.Fprintf(w, "  mutation score: %d/%d (%.0f%%)\n", r.Mutation.Killed, r.Mutation.Mutants, r.Mutation.Score)
		for _, op := range r.Mutation.Operators {
			fmt.Fprintf(w, "    %-18s %3d mutants, %3d killed (%.0f%%)\n", op.Operator, op.Mutants, op.Killed, op.Score)
		}
	}
	analyzed, lost := 0, 0
	for _, rr := range r.Matrix {
		if rr.Analysis != nil && rr.Analysis.Skipped == "" {
			analyzed++
			if len(rr.Analysis.Lost) > 0 {
				lost++
			}
		}
	}
	if analyzed > 0 {
		fmt.Fprintf(w, "  analysis: %d mutants re-solved, %d lose at least one suite purpose\n", analyzed, lost)
	}
	if r.Volatile != nil {
		fmt.Fprintf(w, "  wall-clock: plan %dms, exec %dms, analyze %dms, total %dms\n",
			r.Volatile.PlanMS, r.Volatile.ExecMS, r.Volatile.AnalyzeMS, r.Volatile.TotalMS)
		if ps := r.Volatile.Planning; ps != nil {
			fmt.Fprintf(w, "  planning: %d solves, core skeleton %d hits / %d misses, skeleton %d hits / %d misses\n",
				ps.Solves, ps.SkeletonCoreHits, ps.SkeletonCoreMisses, ps.SkeletonHits, ps.SkeletonMisses)
		}
	}
}
