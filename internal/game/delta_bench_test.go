package game

import (
	"fmt"
	"math/rand"
	"testing"

	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/mutate"
	"tigatest/internal/tctl"
)

// BenchmarkMutantFamily measures the mutant-family solve phase of a
// campaign (DESIGN.md E10): K=12 seeded mutants each re-solved for the
// model goal over a warm base batch, with the incremental dirty-cone path
// on versus the DisableIncremental cold baseline that re-explores every
// mutant from scratch under the same merged extrapolation maxima. The
// batch is rebuilt, the base model re-solved and Prepare run every
// iteration with the timer stopped — the warm-up campaign planning
// performs before its mutant loop — so the timed region is exactly the
// per-mutant marginal cost the feature claims to cut: delta replay plus
// cone fixpoint against cold exploration plus full fixpoint.
//
// The family is drawn from the regime the delta path is built for and
// documents (delta.go): mutants that preserve the extrapolation signature
// and whose reachable graph stays within 25% of the base graph's, so the
// mutant is substantially isomorphic to the explored core. A
// constant-shifting mutant changes the merged maxima and a
// graph-expanding retarget is mostly fresh states — in both cases the two
// arms pay one identical exploration and the pair measures the explorer,
// not the delta path.
//
// Verdicts, graphs and counts are identical either way
// (TestDeltaSolveMatchesCold); speed is the only degree of freedom. CI
// enforces a >= 2x floor on the lep incremental=on/off pair
// (BENCH_incremental.json); traingate's graphs are a few dozen nodes, far
// below the regime where the floor is meaningful, so its pair is archived
// but not gated.
func BenchmarkMutantFamily(b *testing.B) {
	const familyK = 12
	for _, mn := range []string{"traingate", "lep"} {
		// LEP at n=3: large enough that per-mutant solve work dominates the
		// delta bookkeeping, small enough for the CI bench budget.
		sys, env, plant, goalSrc, err := models.ByName(mn, 3)
		if err != nil {
			b.Fatal(err)
		}
		f := tctl.MustParse(env, goalSrc)
		baseSig := maxSignature(sys.MaxConstants(f.ClockConstraints()))

		// The family is drawn once, outside the timed loop, with a fixed
		// seed: identical mutants for both ablation arms and across runs.
		// Operators may produce invalid systems or empty diffs; those rows
		// never reach the solver in a campaign either.
		probe, err := NewBatch(sys, Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		baseRes, err := probe.Solve(f, false)
		if err != nil {
			b.Fatal(err)
		}
		type member struct {
			mut *model.System
			es  *model.EditSet
		}
		var family []member
		for _, m := range mutate.Sample(sys, plant, 8*familyK, rand.New(rand.NewSource(1))) {
			if len(family) == familyK {
				break
			}
			if m.Sys.Validate() != nil {
				continue
			}
			es, err := model.Diff(sys, m.Sys)
			if err != nil || es.Empty() {
				continue
			}
			if maxSignature(mergedMaxima(sys, m.Sys, f.ClockConstraints())) != baseSig {
				continue
			}
			res, err := probe.SolveDelta(m.Sys, es, f, false)
			if err != nil || res.Stats.Nodes*4 > baseRes.Stats.Nodes*5 {
				continue
			}
			family = append(family, member{m.Sys, es})
		}
		if len(family) < familyK/2 {
			b.Fatalf("%s: only %d of %d in-regime mutants — family too thin to measure", mn, len(family), familyK)
		}

		for _, disable := range []bool{false, true} {
			mode := "on"
			if disable {
				mode = "off"
			}
			b.Run(fmt.Sprintf("%s/incremental=%s", mn, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// The warm-up mirrors campaign planning: the base solve
					// builds the core skeleton the deltas replay over. A
					// fresh batch per iteration keeps the 12-slot delta
					// cache from ever serving a mutant twice.
					b.StopTimer()
					batch, err := NewBatch(sys, Options{Workers: 1, DisableIncremental: disable})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := batch.Solve(f, false); err != nil {
						b.Fatal(err)
					}
					// Prepare mirrors campaign planning's pre-mutant warm-up
					// (a no-op for the disabled arm, which has no substrate).
					if err := batch.Prepare(f, false); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					nodes := 0
					for _, m := range family {
						res, err := batch.SolveDelta(m.mut, m.es, f, false)
						if err != nil {
							b.Fatal(err)
						}
						nodes += res.Stats.Nodes
					}
					b.ReportMetric(float64(len(family)), "mutants")
					b.ReportMetric(float64(nodes), "mutnodes")
				}
			})
		}
	}
}
