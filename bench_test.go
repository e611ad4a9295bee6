// Benchmark harness regenerating the paper's evaluation artifacts:
//
//   - BenchmarkTable1: strategy generation for the LEP protocol (Table 1),
//     one sub-benchmark per (test purpose, n) cell. Cells that exhaust the
//     per-cell budget report kill metrics of 0 and are the analogue of the
//     paper's "/" entries; run `go run ./cmd/lep -table1` for the
//     presentation-quality grid including the budget-exhausted cells.
//   - BenchmarkFig5Strategy: synthesis of the Smart Light winning strategy
//     (the paper's Fig. 5).
//   - BenchmarkAlgorithm31: one strategy-guided conformance run (Alg. 3.1).
//   - BenchmarkFaultDetection: the mutation campaign (future work 3).
//   - BenchmarkSolverAblation, BenchmarkFederationReduction,
//     BenchmarkExtrapolation: design-choice ablations called out in
//     DESIGN.md (on-the-fly vs backward, zone-union reduction, ExtraM).
//   - BenchmarkDBM: microbenchmarks of the zone substrate.
package tigatest

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tigatest/internal/dbm"
	"tigatest/internal/game"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

// table1Budget keeps bench runs bounded; the full grid with larger budgets
// lives in cmd/lep.
const table1Budget = 60 * time.Second

func BenchmarkTable1(b *testing.B) {
	purposes := []struct {
		name, src string
	}{
		{"TP1", models.LEPTP1},
		{"TP2", models.LEPTP2},
		{"TP3", models.LEPTP3},
	}
	for _, tp := range purposes {
		// TP1 terminates early at any n; TP2/TP3 are benched on the sizes
		// that fit the budget (the larger sizes are the "/" cells).
		sizes := []int{3, 4, 5, 6, 7, 8}
		if tp.name != "TP1" {
			sizes = []int{3, 4, 5}
		}
		for _, n := range sizes {
			b.Run(fmt.Sprintf("%s/n=%d", tp.name, n), func(b *testing.B) {
				sys := models.LEP(models.LEPOptions{Nodes: n})
				f := tctl.MustParse(models.LEPEnv(sys, n), tp.src)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := game.Solve(sys, f, game.Options{
						EarlyTermination: true,
						TimeBudget:       table1Budget,
					})
					if err != nil {
						b.Fatalf("budget exhausted (a '/' cell): %v", err)
					}
					if !res.Winnable {
						b.Fatal("all LEP test purposes are winnable")
					}
					b.ReportMetric(float64(res.Stats.Nodes), "states")
					b.ReportMetric(float64(res.Stats.PeakHeapBytes)/(1<<20), "heapMB")
				}
			})
		}
	}
}

func BenchmarkFig5Strategy(b *testing.B) {
	sys := models.SmartLight()
	f := tctl.MustParse(models.SmartLightEnv(sys), models.SmartLightGoal)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := game.Solve(sys, f, game.Options{})
		if err != nil || !res.Winnable || res.Strategy == nil {
			b.Fatalf("smartlight must synthesize: %v", err)
		}
	}
}

func BenchmarkAlgorithm31(b *testing.B) {
	sys := models.SmartLight()
	plant := models.SmartLightPlant(sys)
	f := tctl.MustParse(models.SmartLightEnv(sys), models.SmartLightGoal)
	res, err := game.Solve(sys, f, game.Options{})
	if err != nil || !res.Winnable {
		b.Fatal("synthesis failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iut := SimulatedIUT(sys, plant, nil)
		r := texec.Run(res.Strategy, iut, texec.Options{PlantProcs: plant})
		if r.Verdict != texec.Pass {
			b.Fatalf("conformant run must pass: %s", r)
		}
	}
}

func BenchmarkFaultDetection(b *testing.B) {
	sys := models.SmartLight()
	plant := models.SmartLightPlant(sys)
	f := tctl.MustParse(models.SmartLightEnv(sys), models.SmartLightGoal)
	res, err := game.Solve(sys, f, game.Options{})
	if err != nil || !res.Winnable {
		b.Fatal("synthesis failed")
	}
	muts := Mutants(sys, plant, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		killed := 0
		for _, m := range muts {
			iut := MutantIUT(m, plant, m.Policy)
			if texec.Run(res.Strategy, iut, texec.Options{PlantProcs: plant}).Verdict == texec.Fail {
				killed++
			}
		}
		if killed == 0 {
			b.Fatal("campaign must kill some mutants")
		}
		b.ReportMetric(float64(killed)/float64(len(muts))*100, "kill%")
	}
}

func BenchmarkSolverAblation(b *testing.B) {
	cases := []struct {
		name string
		alg  game.Algorithm
	}{
		{"onthefly", game.OnTheFly},
		{"backward", game.Backward},
	}
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	f := tctl.MustParse(models.LEPEnv(sys, 3), models.LEPTP2)
	for _, c := range cases {
		b.Run("lep3-TP2/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := game.Solve(sys, f, game.Options{Algorithm: c.alg})
				if err != nil || !res.Winnable {
					b.Fatalf("solve: %v", err)
				}
				b.ReportMetric(float64(res.Stats.Reevals), "reevals")
			}
		})
	}
	// Early termination is the second half of the on-the-fly story.
	b.Run("lep3-TP2/onthefly-early", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := game.Solve(sys, f, game.Options{EarlyTermination: true})
			if err != nil || !res.Winnable {
				b.Fatalf("solve: %v", err)
			}
			b.ReportMetric(float64(res.Stats.Reevals), "reevals")
		}
	})
}

// BenchmarkSolverParallel tracks the sharded engine on the LEP TP2 n=4
// cell: wall-clock scaling across worker counts (visible on multi-core
// runners), from a pool of one worker up. Every count runs the same
// on-the-fly schedule and explores the same states.
func BenchmarkSolverParallel(b *testing.B) {
	sys := models.LEP(models.LEPOptions{Nodes: 4})
	f := tctl.MustParse(models.LEPEnv(sys, 4), models.LEPTP2)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := game.Solve(sys, f, game.Options{Workers: w})
				if err != nil {
					b.Fatalf("solve: %v", err)
				}
				if !res.Winnable {
					b.Fatal("LEP TP2 is winnable")
				}
				b.ReportMetric(float64(res.Stats.Nodes), "states")
			}
		})
	}
}

// BenchmarkPropagation measures the SCC-condensed propagation engine
// (DESIGN.md E6) on the paper's propagation-bound Table 1 cells: LEP
// TP2/TP3 at n=4..6, full synthesis pipeline (on-the-fly, early
// termination), one engine at workers=1 versus workers=4. Cells that
// exhaust the per-cell budget skip — the analogue of Table 1's "/" entries.
// CI runs the TP2 n=4..5 cells as a timed 4-vs-1-worker comparison and
// archives the result as BENCH_propagation.json (see cmd/benchjson).
func BenchmarkPropagation(b *testing.B) {
	purposes := []struct {
		name, src string
	}{
		{"TP2", models.LEPTP2},
		{"TP3", models.LEPTP3},
	}
	for _, tp := range purposes {
		for _, n := range []int{4, 5, 6} {
			for _, w := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/n=%d/workers=%d", tp.name, n, w), func(b *testing.B) {
					sys := models.LEP(models.LEPOptions{Nodes: n})
					f := tctl.MustParse(models.LEPEnv(sys, n), tp.src)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := game.Solve(sys, f, game.Options{
							EarlyTermination: true,
							TimeBudget:       table1Budget,
							Workers:          w,
						})
						if errors.Is(err, game.ErrBudget) {
							b.Skipf("budget exhausted (a '/' cell at workers=%d): %v", w, err)
						}
						if err != nil {
							b.Fatalf("solve: %v", err)
						}
						if !res.Winnable {
							b.Fatal("all LEP test purposes are winnable")
						}
						b.ReportMetric(float64(res.Stats.Nodes), "states")
						b.ReportMetric(float64(res.Stats.SCCs), "sccs")
						b.ReportMetric(float64(res.Stats.CrossSCCMessages), "xmsgs")
					}
				})
			}
		}
	}
}

func BenchmarkFederationReduction(b *testing.B) {
	sys := models.SmartLight()
	f := tctl.MustParse(models.SmartLightEnv(sys), models.SmartLightGoal)
	for _, reduce := range []bool{true, false} {
		name := "on"
		if !reduce {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			old := dbm.ReduceFederations
			dbm.ReduceFederations = reduce
			defer func() { dbm.ReduceFederations = old }()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, err := game.Solve(sys, f, game.Options{}); err != nil || !res.Winnable {
					b.Fatalf("solve: %v", err)
				}
			}
		})
	}
}

// BenchmarkExtrapolation demonstrates why max-constant extrapolation is
// load-bearing: with it the LEP TP1 game closes after a handful of states;
// without it the pacing clock's unbounded growth makes the zone graph
// diverge, and the run is cut off at the node cap (reported as the metric —
// divergence IS the measured result, not a failure).
func BenchmarkExtrapolation(b *testing.B) {
	const cap = 20000
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	f := tctl.MustParse(models.LEPEnv(sys, 3), models.LEPTP1)
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off(diverges-at-cap)"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := game.Solve(sys, f, game.Options{
					EarlyTermination:     true,
					DisableExtrapolation: disable,
					MaxNodes:             cap,
				})
				switch {
				case err == nil && res.Winnable:
					b.ReportMetric(float64(res.Stats.Nodes), "states")
				case errors.Is(err, game.ErrBudget) && disable:
					// Expected: the unextrapolated graph does not close.
					b.ReportMetric(float64(cap), "states")
				default:
					b.Fatalf("solve: %v", err)
				}
			}
		})
	}
}

func BenchmarkDBM(b *testing.B) {
	dim := 4
	mk := func() *dbm.DBM {
		z := dbm.New(dim)
		z = z.Constrain(1, 0, dbm.LE(10))
		z = z.Constrain(0, 1, dbm.LE(-2))
		z = z.Constrain(2, 0, dbm.LE(7))
		z = z.Constrain(1, 2, dbm.LT(3))
		return z
	}
	a, c := mk(), mk().Up().Constrain(3, 0, dbm.LE(5))
	b.Run("Constrain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if mk() == nil {
				b.Fatal("zone must be non-empty")
			}
		}
	})
	b.Run("UpDown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if a.Up().Down() == nil {
				b.Fatal("non-empty")
			}
		}
	})
	b.Run("Subtract", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dbm.SubtractDBM(c, a)
		}
	})
	b.Run("PredT", func(b *testing.B) {
		good := dbm.FedFromDBM(dim, a)
		bad := dbm.SubtractDBM(c, a)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dbm.PredT(good, bad)
		}
	})
	b.Run("Reset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.Reset(1, 0)
		}
	})
}

// BenchmarkMonitor measures the online tioco oracle on a fixed trace.
func BenchmarkMonitor(b *testing.B) {
	sys := models.SmartLight()
	plant := models.SmartLightPlant(sys)
	touch, _ := sys.ChannelByName("touch")
	dim, _ := sys.ChannelByName("dim")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := NewMonitor(sys, plant)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Input(touch); err != nil {
			b.Fatal(err)
		}
		if err := m.Delay(tiots.Scale); err != nil {
			b.Fatal(err)
		}
		if err := m.Output(dim); err != nil {
			b.Fatal(err)
		}
	}
}
