package tigatest

import (
	"strings"
	"testing"

	"tigatest/internal/models"
)

func buildDoorbell() (*System, []int) {
	sys := NewSystem("doorbell")
	w := sys.AddClock("w")
	press := sys.AddChannel("press", Controllable)
	ring := sys.AddChannel("ring", Uncontrollable)
	bell := sys.AddProcess("Bell")
	idle := bell.AddLocation(Location{Name: "Idle"})
	armed := bell.AddLocation(Location{Name: "Armed", Invariant: []ClockConstraint{LE(w, 3)}})
	rung := bell.AddLocation(Location{Name: "Rung"})
	sys.AddEdge(bell, Edge{Src: idle, Dst: armed, Dir: Receive, Chan: press, Resets: []ClockReset{{Clock: w}}})
	sys.AddEdge(bell, Edge{Src: armed, Dst: rung, Dir: Emit, Chan: ring,
		Guard: Guard{Clocks: []ClockConstraint{GE(w, 1)}}})
	user := sys.AddProcess("User")
	u := user.AddLocation(Location{Name: "U"})
	sys.AddEdge(user, Edge{Src: u, Dst: u, Dir: Emit, Chan: press})
	sys.AddEdge(user, Edge{Src: u, Dst: u, Dir: Receive, Chan: ring})
	return sys, []int{0}
}

func TestFacadeEndToEnd(t *testing.T) {
	sys, plant := buildDoorbell()
	res, err := Synthesize(sys, "control: A<> Bell.Rung", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Winnable || res.Strategy == nil {
		t.Fatal("doorbell must be winnable with a strategy")
	}
	verdict := Test(res.Strategy, SimulatedIUT(sys, plant, nil), plant)
	if verdict.Verdict != Pass {
		t.Fatalf("conformant doorbell must pass: %s", verdict)
	}
}

func TestFacadeParseError(t *testing.T) {
	sys, _ := buildDoorbell()
	if _, err := Synthesize(sys, "definitely not a formula", nil); err == nil {
		t.Fatal("bad formula must error")
	}
	if _, err := ParseFormula(sys, "control: A<> Bell.Nowhere", nil); err == nil {
		t.Fatal("unknown location must error")
	}
}

func TestFacadeMutantsKillable(t *testing.T) {
	sys, plant := buildDoorbell()
	res, err := Synthesize(sys, "control: A<> Bell.Rung", nil)
	if err != nil {
		t.Fatal(err)
	}
	muts := Mutants(sys, plant, 0)
	if len(muts) == 0 {
		t.Fatal("expected mutants")
	}
	killed := 0
	for _, m := range muts {
		v := Test(res.Strategy, MutantIUT(m, plant, m.Policy), plant)
		if v.Verdict == Fail {
			killed++
		}
	}
	if killed == 0 {
		t.Fatal("some mutant must be killed")
	}
}

func TestFacadeMonitorStandsAlone(t *testing.T) {
	sys, plant := buildDoorbell()
	m, err := NewMonitor(sys, plant)
	if err != nil {
		t.Fatal(err)
	}
	press, _ := sys.ChannelByName("press")
	ring, _ := sys.ChannelByName("ring")
	if err := m.Input(press); err != nil {
		t.Fatal(err)
	}
	if err := m.Delay(Scale); err != nil {
		t.Fatal(err)
	}
	if err := m.Output(ring); err != nil {
		t.Fatal(err)
	}
	// Second spontaneous ring violates.
	if err := m.Output(ring); err == nil {
		t.Fatal("second ring must violate")
	}
}

func TestFacadeCampaign(t *testing.T) {
	sys, plant := buildDoorbell()
	res, _ := Synthesize(sys, "control: A<> Bell.Rung", nil)
	cr := Campaign("doorbell", res.Strategy, SimulatedIUT(sys, plant, nil), 3, TestOptions{PlantProcs: plant})
	if cr.Pass != 3 || cr.Killed() {
		t.Fatalf("campaign: %+v", cr)
	}
}

// TestFacadeRefusesSafety: a safety strategy does not compile, so Test,
// TestWithOptions and Campaign end inconclusive before the first step,
// with Compile's error naming the purpose as the reason.
func TestFacadeRefusesSafety(t *testing.T) {
	sys, plant := buildDoorbell()
	const purpose = "control: A[] not Bell.Rung"
	res, err := Synthesize(sys, purpose, nil)
	if err != nil || !res.Winnable || res.Strategy == nil {
		t.Fatalf("never pressing keeps the bell silent: %v", err)
	}
	_, cerr := res.Strategy.Compile()
	if cerr == nil || !strings.Contains(cerr.Error(), purpose+" is a safety purpose") {
		t.Fatalf("compile: got %v, want an error naming the safety purpose", cerr)
	}
	for _, v := range []TestResult{
		Test(res.Strategy, SimulatedIUT(sys, plant, nil), plant),
		TestWithOptions(res.Strategy, SimulatedIUT(sys, plant, nil), TestOptions{PlantProcs: plant}),
	} {
		if v.Verdict != Inconclusive || v.Reason != cerr.Error() || v.Steps != 0 {
			t.Fatalf("got %s, want inconclusive (%v) after 0 steps", v, cerr)
		}
	}
	cr := Campaign("silent", res.Strategy, SimulatedIUT(sys, plant, nil), 3, TestOptions{PlantProcs: plant})
	if cr.Runs != 3 || cr.Incon != 3 || cr.Reasons["inconclusive: "+cerr.Error()] != 3 {
		t.Fatalf("campaign: %+v", cr)
	}
}

func TestFacadeRemote(t *testing.T) {
	sys, plant := buildDoorbell()
	res, _ := Synthesize(sys, "control: A<> Bell.Rung", nil)
	srv, err := ServeIUT("127.0.0.1:0", SimulatedIUT(sys, plant, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialIUT(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if v := Test(res.Strategy, cli, plant); v.Verdict != Pass {
		t.Fatalf("remote doorbell must pass: %s", v)
	}
}

func TestDescribe(t *testing.T) {
	sys, _ := buildDoorbell()
	res, _ := Synthesize(sys, "control: A<> Bell.Rung", nil)
	d := Describe(res)
	if !strings.Contains(d, "winnable") || !strings.Contains(d, "Bell.Rung") {
		t.Fatalf("describe = %q", d)
	}
	if Describe(nil) != "<nil>" {
		t.Fatal("nil describe")
	}
}

func TestFacadeSmartLightShortcut(t *testing.T) {
	sys := models.SmartLight()
	res, err := Synthesize(sys, models.SmartLightGoal, nil)
	if err != nil || !res.Winnable {
		t.Fatalf("smartlight through the facade: %v", err)
	}
}
