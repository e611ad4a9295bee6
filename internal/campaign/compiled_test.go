package campaign

import (
	"bytes"
	"testing"

	"tigatest/internal/game"
	"tigatest/internal/models"
)

// TestCampaignCompiledReportByteIdentical checks that building a compiled
// strategy's rows on first consultation changes no report: campaigns whose
// every solve has its tables fully built before the first run (a SolveVia
// that compiles and encodes each result) must produce reports
// byte-identical to the default, where runs build the nodes they reach —
// same coverage, verdict matrix, mutation scores and lazy-recovered rows,
// on both shipped models, with mutant execution and repeats in play so
// the equivalence covers fail/inconclusive cells, not just passing runs.
func TestCampaignCompiledReportByteIdentical(t *testing.T) {
	for _, name := range []string{"smartlight", "traingate"} {
		sys, env, plant, _, err := models.ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		run := func(force bool) []byte {
			opts := Options{
				Coverage: CoverEdges,
				Plant:    plant,
				Mutants:  2,
				Repeats:  2,
				Workers:  4,
				Seed:     1,
				Solver:   game.Options{Workers: 1},
			}
			if force {
				opts.SolveVia = func(_ SolveKey, solve func() (*game.Result, error)) (*game.Result, error) {
					res, err := solve()
					if err == nil && res.Winnable {
						if cs, cerr := res.CompiledStrategy(); cerr == nil {
							cs.Encode()
						}
					}
					return res, err
				}
			}
			rep, err := Run(sys, env, opts)
			if err != nil {
				t.Fatalf("%s forced=%v: %v", name, force, err)
			}
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf, false); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		lazy := run(false)
		forced := run(true)
		if !bytes.Equal(lazy, forced) {
			t.Fatalf("%s: report with lazily built tables differs from the fully built one:\n--- lazy ---\n%s\n--- forced ---\n%s",
				name, lazy, forced)
		}
	}
}
