package tctl_test

import (
	"os"
	"path/filepath"
	"testing"

	"tigatest/internal/campaign"
	"tigatest/internal/dsl"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

// FuzzTCTL checks the proposition renderer against the parser: a purpose
// that parses renders (objective and proposition, source text cleared) to
// a purpose that parses back to the same rendering, against every
// built-in model and the coffee machine file.
//
// A clock atom renders by clock index (clock[1,0]<=3), which no grammar
// reads back, so purposes with clock atoms are skipped.
func FuzzTCTL(f *testing.F) {
	envs := fuzzEnvs(f)
	f.Add(models.LEPTP1)
	f.Add(models.LEPTP2)
	f.Add(models.LEPTP3)
	f.Add(models.SmartLightGoal)
	f.Add(models.TrainGateGoal)
	for _, src := range []string{
		"control: A<> Machine.Served",
		"control: A<> Machine.Served and strength == 2",
		"control: A[] strength == 0",
		"control: A<> not (Machine.Idle or strength + (strength == 1) > 0)",
		"control: A<> exists (i : 0..2) (inUse[i] - 1) * 2 == 0",
		"control: A<> IUT.Bright and x <= 1+1",
	} {
		f.Add(src)
	}
	for _, name := range []string{"smartlight", "traingate", "lep"} {
		sys, _, plant, _, err := models.ByName(name, 3)
		if err != nil {
			f.Fatal(err)
		}
		for _, g := range campaign.EnumerateGoals(sys, plant, campaign.CoverLocations) {
			f.Add(g.Purpose)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, env := range envs {
			formula, err := tctl.Parse(env, src)
			if err != nil || len(formula.ClockConstraints()) > 0 {
				continue
			}
			rendered := render(formula)
			again, err := tctl.Parse(env, rendered)
			if err != nil {
				t.Fatalf("%s: rendering of %q does not parse: %v\n%s", env.Sys.Name, src, err, rendered)
			}
			if r := render(again); r != rendered {
				t.Fatalf("%s: %q renders\n  %s\nthen\n  %s", env.Sys.Name, src, rendered, r)
			}
		}
	})
}

func render(f *tctl.Formula) string {
	g := *f
	g.Source = ""
	return g.String()
}

func fuzzEnvs(f *testing.F) []*tctl.ParseEnv {
	var envs []*tctl.ParseEnv
	for _, name := range []string{"smartlight", "traingate", "lep"} {
		_, env, _, _, err := models.ByName(name, 3)
		if err != nil {
			f.Fatal(err)
		}
		envs = append(envs, env)
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "modelfiles", "coffeemachine.tga"))
	if err != nil {
		f.Fatal(err)
	}
	file, err := dsl.Parse(string(data))
	if err != nil {
		f.Fatal(err)
	}
	return append(envs, file.ParseEnv())
}
