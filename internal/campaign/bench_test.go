package campaign

import (
	"fmt"
	"strings"
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
// CI archives the digest as BENCH_campaign.json (cmd/benchjson pairs the
// shared=on/off cells into speedups).
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
	}
}

// BenchmarkExecLoop measures Smart Light's first lazy-recovered suite
// entry (edge coverage, compiled decision tables) against the conformant
// eager implementation, which keeps the closed loop cycling touch? ·
// bright! · touch? · off! … forever. Every step consults the strategy,
// drives the deterministic IUT interpreter and updates the tioco monitor.
//
//   - budget hides the IUT's state key, as a remote IUT does, so the run
//     plays all 10 000 steps: allocs/op is the per-step allocation cost
//     times 10 000.
//   - detected runs the same entry with the key visible: the run ends as
//     soon as the closed loop repeats.
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
	runner := &Runner{Strategy: entry.consult, Exec: opts.Exec}
	impl := model.ExtractPlant(sys, opts.Plant, "Stub")
	for _, c := range []struct {
		name   string
		iut    tiots.IUT
		reason string
	}{
		{"budget", keylessIUT{tiots.NewDetIUT(impl, tiots.Scale, nil)}, "step budget exhausted"},
		{"detected", tiots.NewDetIUT(impl, tiots.Scale, nil), "closed loop repeats"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := runner.RunOnce(c.iut)
				if !strings.HasPrefix(res.Reason, c.reason) {
					b.Fatalf("run ended %s, want %q", res, c.reason)
				}
			}
		})
	}
}
