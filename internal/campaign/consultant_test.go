package campaign

import (
	"testing"

	"tigatest/internal/game"
	"tigatest/internal/models"
)

// TestPlanResolvesConsultantPerEntry checks that every suite entry —
// strict, cooperative and lazy-recovered alike — carries the compiled
// decision tables resolved at plan time. Smart Light's edge plan has lazy
// entries, so the lazy retry's path is exercised.
func TestPlanResolvesConsultantPerEntry(t *testing.T) {
	sys := models.SmartLight()
	env := models.SmartLightEnv(sys)
	opts := (&Options{
		Coverage: CoverEdges,
		Plant:    models.SmartLightPlant(sys),
		Seed:     1,
		Solver:   game.Options{Workers: 1},
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
		if e.consult == nil {
			t.Errorf("entry %d (lazy=%v) has no compiled tables", e.Index, e.Lazy)
		}
	}
	if lazy != 2 {
		t.Fatalf("smartlight edge plan has %d lazy entries, want 2", lazy)
	}
}
