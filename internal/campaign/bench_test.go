package campaign

import (
	"fmt"
	"testing"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

// BenchmarkCampaignPlan measures edge-coverage campaign planning with
// shared-core ghost overlays on versus the per-clone baseline that
// re-explores an instrumented clone for every edge goal (DESIGN.md E7).
// The plans are identical either way (TestCampaignSharedCoreReportByteIdentical);
// only the exploration work differs.
//
// Two phases per model:
//
//   - synthesis: the planner's per-goal solve sequence (instrument, strict
//     game, cooperative fallback for goals the strict game cannot win) in
//     isolation — the path the shared core rewires. CI enforces the
//     shared-core speedup floor here.
//   - full: Plan end to end, including the execution-backed subsumption
//     runs against the conformant interpreter. Execution dominates on the
//     small shipped models and is identical in both modes, so this phase
//     is archived for the record, not gated.
//
// A third family, full/compiled=on|off, re-runs the full phase with
// execution routed through the compiled decision tables versus the
// interpreted strategy (ablation E8).
//
// CI archives the digest as BENCH_campaign.json (cmd/benchjson pairs the
// shared=on/off and compiled=on/off cells into speedups).
func BenchmarkCampaignPlan(b *testing.B) {
	for _, name := range []string{"smartlight", "traingate"} {
		sys, env, plant, _, err := models.ByName(name, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(plant) == 0 {
			plant = texec.GuessPlantProcs(sys)
		}
		for _, disable := range []bool{false, true} {
			mode := "on"
			if disable {
				mode = "off"
			}
			b.Run(fmt.Sprintf("%s/synthesis/shared=%s", name, mode), func(b *testing.B) {
				goals := EnumerateGoals(sys, plant, CoverEdges)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					shared, err := game.NewBatch(sys, game.Options{Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
					solves, coreHits := 0, 0
					for _, g := range goals {
						isys, f, err := instrumentEdge(sys, g.EdgeID, g.Purpose)
						if err != nil {
							b.Fatal(err)
						}
						var solve goalSolver
						if disable {
							ib, err := game.NewBatch(isys, game.Options{Workers: 1})
							if err != nil {
								b.Fatal(err)
							}
							solve = func(coop bool) (*game.Result, error) { return ib.Solve(f, coop) }
						} else {
							solve = func(coop bool) (*game.Result, error) {
								return shared.SolveEdgeGhost(isys, f, g.EdgeID, coop)
							}
						}
						res, err := solve(false)
						if err != nil {
							b.Fatal(err)
						}
						solves++
						coreHits += res.Stats.SkeletonCoreHits
						if !res.Winnable {
							if res, err = solve(true); err != nil {
								b.Fatal(err)
							}
							solves++
							coreHits += res.Stats.SkeletonCoreHits
						}
					}
					b.ReportMetric(float64(solves), "solves")
					b.ReportMetric(float64(coreHits), "corehits")
				}
			})
			b.Run(fmt.Sprintf("%s/full/shared=%s", name, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					opts := (&Options{
						Coverage:          CoverEdges,
						Plant:             plant,
						Seed:              1,
						Solver:            game.Options{Workers: 1},
						DisableSharedCore: disable,
					}).withDefaults(sys)
					suite, err := Plan(sys, env, &opts)
					if err != nil {
						b.Fatal(err)
					}
					if suite.Covered() == 0 {
						b.Fatal("degenerate plan")
					}
					b.ReportMetric(float64(suite.Stats.Solves), "solves")
					b.ReportMetric(float64(suite.Stats.SkeletonCoreHits), "corehits")
				}
			})
		}
		// The compiled family measures Plan end to end with execution routed
		// through the compiled decision tables versus the interpreted
		// strategy (ablation E8; the reports are byte-identical either way —
		// TestCampaignCompiledReportByteIdentical). Planning includes the
		// execution-backed subsumption runs, so this is where compilation
		// cost and consultation savings meet in one wall-clock number.
		// Archived for the record, not gated: the ≥10x consultation floor is
		// enforced on BenchmarkMoveAt (BENCH_strategy.json).
		for _, disable := range []bool{false, true} {
			mode := "on"
			if disable {
				mode = "off"
			}
			b.Run(fmt.Sprintf("%s/full/compiled=%s", name, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					opts := (&Options{
						Coverage:       CoverEdges,
						Plant:          plant,
						Seed:           1,
						Solver:         game.Options{Workers: 1},
						DisableCompile: disable,
					}).withDefaults(sys)
					suite, err := Plan(sys, env, &opts)
					if err != nil {
						b.Fatal(err)
					}
					if suite.Covered() == 0 {
						b.Fatal("degenerate plan")
					}
					b.ReportMetric(float64(suite.Stats.Solves), "solves")
				}
			})
		}
	}
}

// BenchmarkExecLoop measures one step-budget-exhausted run of Algorithm
// 3.1: Smart Light's first lazy-recovered suite entry (edge coverage,
// compiled decision tables) against the conformant eager implementation,
// which keeps the closed loop cycling touch? · bright! · touch? · off! …
// until the 10 000-step budget runs out. Every step consults the
// strategy, drives the deterministic IUT interpreter and updates the tioco
// monitor, so allocs/op is the per-step allocation cost times 10 000.
func BenchmarkExecLoop(b *testing.B) {
	sys, env, plant, _, err := models.ByName("smartlight", 0)
	if err != nil {
		b.Fatal(err)
	}
	opts := (&Options{Coverage: CoverEdges, Plant: plant, Seed: 1, Solver: game.Options{Workers: 1}}).withDefaults(sys)
	suite, err := Plan(sys, env, &opts)
	if err != nil {
		b.Fatal(err)
	}
	var entry *SuiteEntry
	for _, e := range suite.Entries {
		if e.Lazy {
			entry = e
			break
		}
	}
	if entry == nil {
		b.Fatal("smartlight plan has no lazy entry")
	}
	runner := &Runner{Strategy: entry.consultant(), Exec: opts.Exec}
	iut := tiots.NewDetIUT(model.ExtractPlant(sys, opts.Plant, "Stub"), tiots.Scale, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runner.RunOnce(iut)
		if res.Reason != "step budget exhausted" {
			b.Fatalf("run ended early: %s", res)
		}
	}
}
