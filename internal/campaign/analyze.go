// Incremental mutant analysis: after the matrix executes, every mutant
// row's system is diffed against the specification (model.Diff) and each
// suite purpose is re-solved on the mutant through the batch's delta path
// (game.Batch.SolveDelta / SolveDeltaEdgeGhost) — clean states replay from
// the shared core skeleton, only the mutation's dirty cone is re-explored,
// and the backward fixpoint re-runs only from the dirty components. Every
// re-solve, location and edge goal alike, stops as soon as the initial
// state's verdict is known. The verdict — which purposes the mutant loses,
// and the analysis graph sizes — is deterministic (identical for every
// worker count and for the game.Options.DisableIncremental ablation, which
// re-explores the same merged-maxima graph cold), so it lives in the
// canonical report.

package campaign

import (
	"fmt"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/tctl"
)

// RowAnalysis is the incremental re-solve verdict of one mutant row: for
// every suite entry, is the purpose that admitted it still winnable (in the
// entry's own game mode) on the mutated system? A lost purpose predicts,
// from the game alone, that the mutant bent the specification where that
// strategy steers — the static counterpart of the matrix's execution
// verdicts.
type RowAnalysis struct {
	// Purposes counts the suite purposes re-solved on the mutant.
	Purposes int `json:"purposes"`
	// Lost lists the suite entry indices whose purpose is no longer
	// winnable on the mutant, in suite order.
	Lost []int `json:"lost,omitempty"`
	// Nodes/Transitions sum the analysis graphs over all re-solves. The
	// delta path explores under the pointwise maximum of the base and
	// mutant clock constants, so both counts are identical for every
	// worker count and for incremental on/off.
	Nodes       int `json:"nodes"`
	Transitions int `json:"transitions"`
	// Skipped explains an unanalyzed row (structural diff failure, an
	// invalid mutant, or an instrumentation error); the other fields are
	// then partial or zero. The reasons are deterministic strings.
	Skipped string `json:"skipped,omitempty"`
}

// analyzeMutants runs the incremental analysis phase over the matrix rows.
// Solves route through Options.SolveVia like planning solves, carrying the
// mutant's edit-set hash in SolveKey.EditHash so external caches address
// them by (base model × edit set × purpose × mode). Returns a per-row
// slice (nil entries for non-mutant rows) and the folded solver counters;
// both are nil when the matrix has no mutant rows or the suite is empty.
func analyzeMutants(sys *model.System, env *tctl.ParseEnv, suite *Suite, rows []*IUTRow, opts *Options) ([]*RowAnalysis, *PlanStats, error) {
	hasMutant := false
	for _, r := range rows {
		if r.Sys != nil {
			hasMutant = true
			break
		}
	}
	if !hasMutant || len(suite.Entries) == 0 {
		return nil, nil, nil
	}

	batch := opts.Batch
	stats := &PlanStats{}
	goalByName := map[string]*PlannedGoal{}
	for _, pg := range suite.Goals {
		goalByName[pg.Name] = pg
	}

	// Warm the per-purpose base substrate (core skeleton, converged base
	// fixpoint) before the mutant loop: every signature-preserving row hits
	// these caches, so no single row is charged for the family's shared
	// work. Unparsable purposes are left for the row loop, which already
	// reports them per entry.
	for _, e := range suite.Entries {
		pg := goalByName[e.SourceGoal]
		if pg == nil || pg.Kind == "edge" {
			continue
		}
		if f, perr := tctl.Parse(env, e.Purpose); perr == nil {
			if err := batch.Prepare(f, e.Cooperative); err != nil {
				return nil, nil, fmt.Errorf("preparing %s: %w", e.Purpose, err)
			}
		}
	}

	analyses := make([]*RowAnalysis, len(rows))
	for ri, row := range rows {
		if row.Sys == nil {
			continue
		}
		if err := canceled(opts.Solver.Cancel); err != nil {
			return nil, nil, err
		}
		ra := &RowAnalysis{}
		analyses[ri] = ra
		// A mutation can break the system outright (a swapped output can
		// strand a receive without partners); such a row never reaches the
		// solver — execution already exercises it through its extraction.
		if verr := row.Sys.Validate(); verr != nil {
			ra.Skipped = "invalid mutant: " + verr.Error()
			continue
		}
		es, derr := model.Diff(sys, row.Sys)
		if derr != nil {
			ra.Skipped = "diff: " + derr.Error()
			continue
		}
		if es.Empty() {
			ra.Skipped = "mutant is structurally identical to the specification"
			continue
		}
		eh := es.Hash()
		for _, e := range suite.Entries {
			if err := canceled(opts.Solver.Cancel); err != nil {
				return nil, nil, err
			}
			pg := goalByName[e.SourceGoal]
			if pg == nil {
				// Entries constructed outside Plan carry no goal record;
				// nothing to re-solve.
				continue
			}
			var (
				res *game.Result
				err error
			)
			if pg.Kind == "edge" {
				inst, f, ierr := instrumentEdge(row.Sys, pg.EdgeID, pg.Purpose)
				if ierr != nil {
					ra.Skipped = "instrumentation: " + ierr.Error()
					break
				}
				key := SolveKey{Purpose: f.String(), Signature: game.ExtrapolationSignature(sys, f), EdgeID: pg.EdgeID, Cooperative: e.Cooperative, EditHash: eh}
				res, err = opts.route(stats, key, func() (*game.Result, error) {
					return batch.SolveDeltaEdgeGhost(inst, row.Sys, es, f, pg.EdgeID, e.Cooperative)
				})
			} else {
				f, perr := tctl.Parse(env, e.Purpose)
				if perr != nil {
					ra.Skipped = "purpose parse error: " + perr.Error()
					break
				}
				key := SolveKey{Purpose: f.String(), Signature: game.ExtrapolationSignature(sys, f), EdgeID: -1, Cooperative: e.Cooperative, EditHash: eh}
				res, err = opts.route(stats, key, func() (*game.Result, error) {
					return batch.SolveDelta(row.Sys, es, f, e.Cooperative)
				})
			}
			if err != nil {
				return nil, nil, fmt.Errorf("re-solving %s on %s: %w", e.Purpose, row.Name, err)
			}
			ra.Purposes++
			ra.Nodes += res.Stats.Nodes
			ra.Transitions += res.Stats.Transitions
			if !res.Winnable {
				ra.Lost = append(ra.Lost, e.Index)
			}
		}
	}
	return analyses, stats, nil
}
