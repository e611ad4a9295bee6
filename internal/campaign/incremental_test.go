// Campaign-level differential suite for the incremental mutant re-solve:
// the canonical report — coverage, matrix, mutation scores AND the per-row
// analysis verdicts — must be byte-identical with the incremental path on
// and off (the E10 ablation re-explores every mutant cold on the same
// merged-maxima graph), across models, worker counts and both game modes
// (the planned suites mix strict and cooperative entries).

package campaign

import (
	"bytes"
	"fmt"
	"testing"

	"tigatest/internal/game"
	"tigatest/internal/models"
)

// TestIncrementalSolveMatchesCold runs whole campaigns with the delta path
// on and off and compares the canonical JSON byte for byte. The mutant set
// spans every applicable mutation operator (Mutants: 0 = one mutant per
// (operator, site)); LEP samples to keep the matrix bounded.
func TestIncrementalSolveMatchesCold(t *testing.T) {
	cases := []struct {
		name    string
		nodes   int
		mutants int
	}{
		{"smartlight", 2, 0},
		{"traingate", 2, 0},
		{"lep", 2, 6},
	}
	for _, tc := range cases {
		sys, env, plant, _, err := models.ByName(tc.name, tc.nodes)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			run := func(disable bool) (*Report, []byte) {
				opts := Options{
					Coverage: CoverEdges,
					Plant:    plant,
					Mutants:  tc.mutants,
					Workers:  workers,
					Seed:     1,
					Solver:   game.Options{Workers: workers, DisableIncremental: disable},
				}
				rep, err := Run(sys, env, opts)
				if err != nil {
					t.Fatalf("%s workers=%d incremental=%v: %v", tc.name, workers, !disable, err)
				}
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf, false); err != nil {
					t.Fatal(err)
				}
				return rep, buf.Bytes()
			}
			repOn, on := run(false)
			_, off := run(true)
			if !bytes.Equal(on, off) {
				t.Fatalf("%s workers=%d: canonical reports differ between incremental on and off:\n%s",
					tc.name, workers, firstDiff(on, off))
			}
			// The comparison must not be vacuous: mutant rows were analyzed,
			// purposes were re-solved, and the graphs are non-trivial.
			analyzed, purposes := 0, 0
			for _, row := range repOn.Matrix {
				if row.Analysis == nil {
					continue
				}
				if row.Analysis.Skipped != "" {
					continue
				}
				analyzed++
				purposes += row.Analysis.Purposes
				if row.Analysis.Nodes == 0 {
					t.Errorf("%s workers=%d: row %s analyzed with an empty graph", tc.name, workers, row.IUT)
				}
			}
			if analyzed == 0 || purposes == 0 {
				t.Fatalf("%s workers=%d: no mutant rows analyzed (%d rows, %d purposes)",
					tc.name, workers, analyzed, purposes)
			}
		}
	}
}

// TestIncrementalAnalysisDetectsLostPurposes pins the verdict content, not
// just its reproducibility: dropping a watched edge makes that edge's
// coverage purpose unwinnable on the mutant, so some drop-edge row must
// lose at least one suite purpose.
func TestIncrementalAnalysisDetectsLostPurposes(t *testing.T) {
	sys := models.SmartLight()
	rep, err := Run(sys, models.SmartLightEnv(sys), smartLightOptions())
	if err != nil {
		t.Fatal(err)
	}
	lost := false
	for _, row := range rep.Matrix {
		if row.Operator == "drop-edge" && row.Analysis != nil && len(row.Analysis.Lost) > 0 {
			lost = true
		}
	}
	if !lost {
		t.Fatal("no drop-edge mutant lost a suite purpose in the incremental analysis")
	}
}

// firstDiff renders the first line where two byte slices diverge.
func firstDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n  on:  %s\n  off: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}
