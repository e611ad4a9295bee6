package game

import (
	"encoding/json"
	"strings"
	"testing"

	"tigatest/internal/model"
)

func solveOneStep(t *testing.T) *Strategy {
	t.Helper()
	res := solveStr(t, oneStep(), "control: A<> P.Goal", Options{})
	if !res.Winnable {
		t.Fatal("onestep must be winnable")
	}
	return res.Strategy
}

func TestStrategyAccessors(t *testing.T) {
	st := solveOneStep(t)
	if st.System() == nil || st.Formula() == nil {
		t.Fatal("accessors must expose system and formula")
	}
	if st.Cooperative() {
		t.Fatal("plain solve is not cooperative")
	}
	if st.NumNodes() < 2 {
		t.Fatalf("expected at least source and goal nodes, got %d", st.NumNodes())
	}
	if st.InitialNode() != 0 {
		t.Fatal("initial node must be 0")
	}
	if st.NodeState(0) == nil {
		t.Fatal("node state must be accessible")
	}
}

func TestStrategyStampAt(t *testing.T) {
	st := solveOneStep(t)
	// The initial point is winning: it has a stamp.
	if s := st.StampAt(0, []int64{0}, tick); s <= 0 {
		t.Fatalf("initial point must be stamped, got %d", s)
	}
	// Points beyond the guard's deadline are losing (x>3 cannot act, and
	// nothing forces the plant).
	if s := st.StampAt(0, []int64{4 * tick}, tick); s != -1 {
		t.Fatalf("x=4 must be outside the winning region, got stamp %d", s)
	}
}

func TestStrategyInGoal(t *testing.T) {
	st := solveOneStep(t)
	// Node 0 is (A); the goal location is a different node.
	if st.InGoal(0, []int64{0}, tick) {
		t.Fatal("A is not the goal")
	}
	found := false
	for id := 0; id < st.NumNodes(); id++ {
		if st.InGoal(id, []int64{2 * tick}, tick) {
			found = true
		}
	}
	if !found {
		t.Fatal("some node must be the goal")
	}
}

func TestStrategyFollowTransition(t *testing.T) {
	st := solveOneStep(t)
	n := st.nodes[0]
	if len(n.succs) == 0 {
		t.Fatal("initial node needs successors")
	}
	// The internal controllable edge has Chan == -1.
	trans, target, err := st.FollowTransition(0, -1, []int64{2 * tick}, tick)
	if err != nil {
		t.Fatal(err)
	}
	if trans == nil || target == 0 {
		t.Fatal("transition must lead to the goal node")
	}
	// At x=0 the guard x>=2 fails: no enabled transition.
	if _, _, err := st.FollowTransition(0, -1, []int64{0}, tick); err == nil {
		t.Fatal("guard-disabled transition must not match")
	}
}

func TestStrategyJSONExport(t *testing.T) {
	st := solveOneStep(t)
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip as generic JSON (angle brackets are escaped in the raw
	// bytes, so compare after parsing).
	var parsed map[string]any
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed["formula"] != "control: A<> P.Goal" {
		t.Fatalf("formula field = %v", parsed["formula"])
	}
	states, ok := parsed["states"].([]any)
	if !ok || len(states) == 0 {
		t.Fatal("states must be a non-empty JSON array")
	}
	first, _ := states[0].(map[string]any)
	if _, ok := first["zone"]; !ok {
		t.Fatalf("state entries must carry zones: %v", first)
	}
}

func TestStrategyPrintShowsActionsAndZones(t *testing.T) {
	st := solveOneStep(t)
	var sb strings.Builder
	st.Print(&sb)
	out := sb.String()
	for _, frag := range []string{"Winning strategy", "offer", "x>=2", "goal"} {
		if !strings.Contains(out, frag) {
			t.Errorf("printout missing %q:\n%s", frag, out)
		}
	}
}

func TestApplyResets(t *testing.T) {
	s := model.NewSystem("resets")
	x := s.AddClock("x")
	y := s.AddClock("y")
	p := s.AddProcess("P")
	a := p.AddLocation(model.Location{Name: "A"})
	g := p.AddLocation(model.Location{Name: "Goal"})
	s.AddEdge(p, model.Edge{Src: a, Dst: g, Dir: model.NoSync, Kind: model.Controllable,
		Resets: []model.ClockReset{{Clock: x, Value: 0}, {Clock: y, Value: 2}}})
	res := solveStr(t, s, "control: A<> P.Goal", Options{})
	n := res.Strategy.nodes[0]
	out := ApplyResets(n.succs[0].trans, []int64{5 * tick, 7 * tick}, tick)
	if out[0] != 0 || out[1] != 2*tick {
		t.Fatalf("resets wrong: %v", out)
	}
}

func TestMoveStringForms(t *testing.T) {
	if (Move{Kind: MoveGoal}).String() != "goal reached" {
		t.Error("goal string")
	}
	if !strings.Contains((Move{Kind: MoveWait, WaitTicks: 7}).String(), "wait 7") {
		t.Error("wait string")
	}
	if MoveNone.String() != "none" || MoveAction.String() != "action" {
		t.Error("kind strings")
	}
}
