package campaign

import (
	"testing"

	"tigatest/internal/game"
	"tigatest/internal/models"
)

// TestPlanResolvesConsultantPerEntry checks that every suite entry —
// strict, cooperative and lazy-recovered alike — carries the consultant
// resolved at plan time: the compiled decision tables by default, the
// interpreted strategy under DisableCompile. Smart Light's edge plan has
// lazy entries, so the lazy retry's path is exercised.
func TestPlanResolvesConsultantPerEntry(t *testing.T) {
	sys := models.SmartLight()
	env := models.SmartLightEnv(sys)
	for _, disable := range []bool{false, true} {
		opts := (&Options{
			Coverage:       CoverEdges,
			Plant:          models.SmartLightPlant(sys),
			Seed:           1,
			Solver:         game.Options{Workers: 1},
			DisableCompile: disable,
		}).withDefaults(sys)
		suite, err := Plan(sys, env, &opts)
		if err != nil {
			t.Fatal(err)
		}
		lazy := 0
		for _, e := range suite.Entries {
			if e.Lazy {
				lazy++
			}
			switch c := e.consultant().(type) {
			case *game.CompiledStrategy:
				if disable {
					t.Errorf("DisableCompile: entry %d (lazy=%v) consults the compiled tables", e.Index, e.Lazy)
				}
			case *game.Strategy:
				if !disable {
					t.Errorf("entry %d (lazy=%v) consults the interpreted strategy", e.Index, e.Lazy)
				}
			default:
				t.Errorf("entry %d: unexpected consultant %T", e.Index, c)
			}
		}
		if lazy != 2 {
			t.Fatalf("smartlight edge plan has %d lazy entries, want 2", lazy)
		}
	}
}
