package dsl_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tigatest/internal/campaign"
	"tigatest/internal/dsl"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

// The parse pins hold what the two front ends produce for every model file
// and test purpose the repository ships, so a change to the shared lexer or
// grammar that alters a parse result fails here rather than in a cache key
// or a solver count far downstream.

// TestParsePinsModels pins the structural hash of each shipped .tga file
// and of each built-in model printed and parsed back.
func TestParsePinsModels(t *testing.T) {
	pins := map[string]string{
		"beeper.tga":        "a3c19a727f3d4dd6",
		"coffeemachine.tga": "5f435fa43ccf526f",
		"smartlight":        "c4adba69e224c55d",
		"traingate":         "d27a888d1c09942e",
		"lep-3":             "c5c9d6be7fa0b253",
	}
	got := map[string]string{}
	for _, name := range []string{"beeper.tga", "coffeemachine.tga"} {
		got[name] = shippedFile(t, name).Sys.HashKey()
	}
	for _, name := range []string{"smartlight", "traingate", "lep"} {
		sys, env, _, _, err := models.ByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		f, err := dsl.Parse(dsl.Print(sys, env.Ranges))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "lep" {
			name = "lep-3"
		}
		got[name] = f.Sys.HashKey()
	}
	for name, want := range pins {
		if got[name] != want {
			t.Errorf("%s: hash %s, pinned %s", name, got[name], want)
		}
	}
}

// TestParsePinsPurposes pins the rendered proposition and the clock
// constraints of every purpose the repository parses: the LEP TP1-TP3, the
// built-ins' standard goals and location-coverage goals, the coffee machine
// purposes and the clock-bounded location purposes tigad's benchmark keys.
// Formula.String returns the source text, so it cannot serve as the pin.
func TestParsePinsPurposes(t *testing.T) {
	for _, c := range pinPurposes(t) {
		if want, ok := purposePins[c.model+"|"+c.src]; !ok {
			t.Errorf("%s: no pin for %q (renders %q)", c.model, c.src, c.render)
		} else if c.render != want {
			t.Errorf("%s: %q renders\n  %q\npinned\n  %q", c.model, c.src, c.render, want)
		}
	}
}

type pinCase struct{ model, src, render string }

func shippedFile(t *testing.T, name string) *dsl.File {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "modelfiles", name))
	if err != nil {
		t.Fatal(err)
	}
	f, err := dsl.Parse(string(data))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return f
}

// pinPurposes parses every pinned purpose and renders its objective,
// proposition and clock constraints.
func pinPurposes(t *testing.T) []pinCase {
	t.Helper()
	type target struct {
		name string
		sys  *model.System
		env  *tctl.ParseEnv
		srcs []string
	}
	var targets []target
	for _, name := range []string{"smartlight", "traingate", "lep"} {
		sys, env, plant, goal, err := models.ByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		srcs := []string{goal}
		for _, g := range campaign.EnumerateGoals(sys, plant, campaign.CoverLocations) {
			srcs = append(srcs, g.Purpose)
		}
		switch name {
		case "lep":
			srcs = append(srcs, models.LEPTP2, models.LEPTP3)
		case "smartlight":
			srcs = append(srcs,
				"control: A<> IUT.L1 and x <= 3",
				"control: A<> IUT.Dim and Tp < 2",
				"control: A<> IUT.Bright and z >= 1",
				"control: A<> IUT.Off and x > 0",
				"control: A<> x - Tp >= 2 && IUT.Bright",
				"control: A[] Tp == 2",
				"control: A<> x != 3 or IUT.Dim",
				"control: A<> x <= 2 * 3 - 1",
			)
		}
		targets = append(targets, target{name, sys, env, srcs})
	}
	cm := shippedFile(t, "coffeemachine.tga")
	targets = append(targets, target{"coffeemachine.tga", cm.Sys, cm.ParseEnv(), []string{
		"control: A<> Machine.Served",
		"control: A<> Machine.Served and strength == 2",
		"control: A<> Machine.Served and strength == 0",
		"control: A[] strength == 0",
	}})
	var out []pinCase
	for _, tg := range targets {
		for _, src := range tg.srcs {
			f, err := tctl.Parse(tg.env, src)
			if err != nil {
				t.Fatalf("%s: %q: %v", tg.name, src, err)
			}
			var cs []string
			for _, c := range f.ClockConstraints() {
				cs = append(cs, c.String(tg.sys))
			}
			out = append(out, pinCase{tg.name, src, fmt.Sprintf("%s %s [%s]", f.Objective, f.Prop, strings.Join(cs, " "))})
		}
	}
	return out
}

var purposePins = map[string]string{
	"coffeemachine.tga|control: A<> Machine.Served and strength == 0":     "A<> (Machine.Served and (strength == 0)) []",
	"coffeemachine.tga|control: A<> Machine.Served and strength == 2":     "A<> (Machine.Served and (strength == 2)) []",
	"coffeemachine.tga|control: A<> Machine.Served":                       "A<> Machine.Served []",
	"coffeemachine.tga|control: A[] strength == 0":                        "A[] (strength == 0) []",
	"lep|control: A<> (IUT.betterInfo == 1) and IUT.forward":              "A<> ((IUT.betterInfo == 1) and IUT.forward) []",
	"lep|control: A<> IUT.forward":                                        "A<> IUT.forward []",
	"lep|control: A<> IUT.idle":                                           "A<> IUT.idle []",
	"lep|control: A<> forall (i : BufferId) (inUse[i] == 1) and IUT.idle": "A<> (forall (i:0..2) (inUse[i] == 1) and IUT.idle) []",
	"lep|control: A<> forall (i : BufferId) (inUse[i] == 1)":              "A<> forall (i:0..2) (inUse[i] == 1) []",
	"smartlight|control: A<> IUT.Bright and z >= 1":                       "A<> (IUT.Bright and clock[0,3]<=-1) [z>=1]",
	"smartlight|control: A<> IUT.Bright":                                  "A<> IUT.Bright []",
	"smartlight|control: A<> IUT.Dim and Tp < 2":                          "A<> (IUT.Dim and clock[2,0]<2) [Tp<2]",
	"smartlight|control: A<> IUT.Dim":                                     "A<> IUT.Dim []",
	"smartlight|control: A<> IUT.L1 and x <= 3":                           "A<> (IUT.L1 and clock[1,0]<=3) [x<=3]",
	"smartlight|control: A<> IUT.L1":                                      "A<> IUT.L1 []",
	"smartlight|control: A<> IUT.L2":                                      "A<> IUT.L2 []",
	"smartlight|control: A<> IUT.L3":                                      "A<> IUT.L3 []",
	"smartlight|control: A<> IUT.L4":                                      "A<> IUT.L4 []",
	"smartlight|control: A<> IUT.L5":                                      "A<> IUT.L5 []",
	"smartlight|control: A<> IUT.L6":                                      "A<> IUT.L6 []",
	"smartlight|control: A<> IUT.Off and x > 0":                           "A<> (IUT.Off and clock[0,1]<0) [x>0]",
	"smartlight|control: A<> IUT.Off":                                     "A<> IUT.Off []",
	"smartlight|control: A<> x != 3 or IUT.Dim":                           "A<> ((clock[1,0]<3 or clock[0,1]<-3) or IUT.Dim) [x<3 x>3]",
	"smartlight|control: A<> x - Tp >= 2 && IUT.Bright":                   "A<> (clock[2,1]<=-2 and IUT.Bright) [Tp-x<=-2]",
	"smartlight|control: A<> x <= 2 * 3 - 1":                              "A<> clock[1,0]<=5 [x<=5]",
	"smartlight|control: A[] Tp == 2":                                     "A[] (clock[2,0]<=2 and clock[0,2]<=-2) [Tp<=2 Tp>=2]",
	"traingate|control: A<> Gate.Closed":                                  "A<> Gate.Closed []",
	"traingate|control: A<> Gate.Lowering":                                "A<> Gate.Lowering []",
	"traingate|control: A<> Gate.Open":                                    "A<> Gate.Open []",
	"traingate|control: A<> Gate.Raising":                                 "A<> Gate.Raising []",
	"traingate|control: A<> Train.Approaching":                            "A<> Train.Approaching []",
	"traingate|control: A<> Train.Crossing and Gate.Closed":               "A<> (Train.Crossing and Gate.Closed) []",
	"traingate|control: A<> Train.Crossing":                               "A<> Train.Crossing []",
	"traingate|control: A<> Train.Safe":                                   "A<> Train.Safe []",
}
