package tioco

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"tigatest/internal/model"
	"tigatest/internal/tiots"
)

// chooser is a nondeterministic plant: from L0 the output a! may lead to
// L1 (twice, through duplicate edges that reset x) or to L2 (keeping x).
// L1 must emit b! within one time unit; L2 emits c! whenever.
func chooser(t *testing.T) (m *Monitor, a, b, c int) {
	t.Helper()
	s := model.NewSystem("chooser")
	x := s.AddClock("x")
	a = s.AddChannel("a", model.Uncontrollable)
	b = s.AddChannel("b", model.Uncontrollable)
	c = s.AddChannel("c", model.Uncontrollable)
	p := s.AddProcess("P")
	l0 := p.AddLocation(model.Location{Name: "L0"})
	l1 := p.AddLocation(model.Location{Name: "L1", Invariant: []model.ClockConstraint{model.LE(x, 1)}})
	l2 := p.AddLocation(model.Location{Name: "L2"})
	for i := 0; i < 2; i++ {
		s.AddEdge(p, model.Edge{Src: l0, Dst: l1, Dir: model.Emit, Chan: a, Resets: []model.ClockReset{{Clock: x}}})
	}
	s.AddEdge(p, model.Edge{Src: l0, Dst: l2, Dir: model.Emit, Chan: a})
	s.AddEdge(p, model.Edge{Src: l1, Dst: l0, Dir: model.Emit, Chan: b})
	s.AddEdge(p, model.Edge{Src: l2, Dst: l0, Dir: model.Emit, Chan: c})
	env := s.AddProcess("Env")
	e0 := env.AddLocation(model.Location{Name: "E0"})
	for _, ch := range []int{a, b, c} {
		s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: ch})
	}
	m, err := NewMonitor(s, []int{0}, tiots.Scale)
	if err != nil {
		t.Fatal(err)
	}
	return m, a, b, c
}

// TestMonitorNondeterministicHypotheses drives the monitor through
// hypothesis sets that split, collapse on duplicates, shrink under delays
// and split again from recycled states, checking the live set after every
// step.
func TestMonitorNondeterministicHypotheses(t *testing.T) {
	m, a, b, c := chooser(t)
	steps := []struct {
		name    string
		step    func() error
		states  int
		allowed string
	}{
		{"delay 3", func() error { return m.Delay(3 * tiots.Scale) }, 1, "a!"},
		{"a! splits, duplicate dropped", func() error { return m.Output(a) }, 2, "b!,c!"},
		{"delay 2 kills L1", func() error { return m.Delay(2 * tiots.Scale) }, 1, "c!"},
		{"c!", func() error { return m.Output(c) }, 1, "a!"},
		{"a! splits again", func() error { return m.Output(a) }, 2, "b!,c!"},
		{"delay 0.5 keeps both", func() error { return m.Delay(tiots.Scale / 2) }, 2, "b!,c!"},
		{"b! picks L1", func() error { return m.Output(b) }, 1, "a!"},
	}
	for _, st := range steps {
		if err := st.step(); err != nil {
			t.Fatalf("%s: unexpected violation: %v", st.name, err)
		}
		if got := m.StateCount(); got != st.states {
			t.Fatalf("%s: %d hypotheses, want %d", st.name, got, st.states)
		}
		if got := m.AllowedOutputs(); got != st.allowed {
			t.Fatalf("%s: allowed %s, want %s", st.name, got, st.allowed)
		}
	}
	const trace = "3.000 · a! · 2.000 · c! · a! · 0.500 · b!"
	if got := m.Trace(); got != trace {
		t.Fatalf("trace %q, want %q", got, trace)
	}

	// A rejected output leaves the hypotheses as they were.
	err := m.Output(c)
	if err == nil || !strings.Contains(err.Error(), "after "+trace+" · c!; allowed: a!") {
		t.Fatalf("c! at L0 must be rejected with the full trace, got %v", err)
	}
	if m.StateCount() != 1 || m.AllowedOutputs() != "a!" {
		t.Fatalf("rejection changed the hypotheses: %d, %s", m.StateCount(), m.AllowedOutputs())
	}
	// Surviving hypotheses age in place: after a!, both live through one
	// time unit, and only L2 through a second one.
	if err := m.Output(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Delay(tiots.Scale); err != nil || m.StateCount() != 2 {
		t.Fatalf("delay 1 must keep both hypotheses: %v, %d", err, m.StateCount())
	}
	if err := m.Delay(tiots.Scale); err != nil || m.StateCount() != 1 || m.AllowedOutputs() != "c!" {
		t.Fatalf("delay 1 more must leave only L2: %v, %d, %s", err, m.StateCount(), m.AllowedOutputs())
	}
}

// fan is a plant whose output a! leads from L0 to any of width locations,
// each through two duplicate edges, and b! from every one of them back to
// L0: a! opens width hypotheses (after dropping as many duplicates) and
// b! collapses them to one. The input i? moves L1 to L2, so it merges a
// fresh successor with a hypothesis that ignored the input.
func fan(t testing.TB, width int) (m *Monitor, a, b, i int) {
	t.Helper()
	s := model.NewSystem("fan")
	s.AddClock("x")
	a = s.AddChannel("a", model.Uncontrollable)
	b = s.AddChannel("b", model.Uncontrollable)
	i = s.AddChannel("i", model.Controllable)
	p := s.AddProcess("P")
	l0 := p.AddLocation(model.Location{Name: "L0"})
	for j := 0; j < width; j++ {
		l := p.AddLocation(model.Location{Name: fmt.Sprintf("L%d", j+1)})
		s.AddEdge(p, model.Edge{Src: l0, Dst: l, Dir: model.Emit, Chan: a})
		s.AddEdge(p, model.Edge{Src: l0, Dst: l, Dir: model.Emit, Chan: a})
		s.AddEdge(p, model.Edge{Src: l, Dst: l0, Dir: model.Emit, Chan: b})
	}
	s.AddEdge(p, model.Edge{Src: 1, Dst: 2, Dir: model.Receive, Chan: i})
	e := s.AddProcess("Env")
	e0 := e.AddLocation(model.Location{Name: "E0"})
	for _, ch := range []int{a, b} {
		s.AddEdge(e, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: ch})
	}
	s.AddEdge(e, model.Edge{Src: e0, Dst: e0, Dir: model.Emit, Chan: i})
	m, err := NewMonitor(s, []int{0}, tiots.Scale)
	if err != nil {
		t.Fatal(err)
	}
	return m, a, b, i
}

// checkOwnership fails when a hypothesis state is referenced twice across
// the live set and the free list, or carries a commit mark between steps.
func checkOwnership(t *testing.T, m *Monitor) {
	t.Helper()
	seen := map[*state]bool{}
	for _, s := range append(slices.Clone(m.states), m.free...) {
		if seen[s] {
			t.Fatalf("state %p referenced twice", s)
		}
		if s.prev || s.kept {
			t.Fatalf("state %p keeps a commit mark", s)
		}
		seen[s] = true
	}
}

// TestMonitorWideHypothesisSets splits the monitor into many hypotheses
// and collapses them again, repeatedly, so recycled states are reused:
// duplicates must be dropped, and no state may be owned twice.
func TestMonitorWideHypothesisSets(t *testing.T) {
	const width = 50
	m, a, b, in := fan(t, width)
	for round := 0; round < 4; round++ {
		if err := m.Output(a); err != nil {
			t.Fatal(err)
		}
		if m.StateCount() != width {
			t.Fatalf("round %d: a! left %d hypotheses, want %d", round, m.StateCount(), width)
		}
		checkOwnership(t, m)
		if err := m.Delay(tiots.Scale); err != nil || m.StateCount() != width {
			t.Fatalf("round %d: delay: %v, %d hypotheses", round, err, m.StateCount())
		}
		if err := m.Input(in); err != nil || m.StateCount() != width-1 {
			t.Fatalf("round %d: i? must merge L1 into L2: %v, %d hypotheses", round, err, m.StateCount())
		}
		checkOwnership(t, m)
		if err := m.Output(b); err != nil {
			t.Fatal(err)
		}
		if m.StateCount() != 1 || m.AllowedOutputs() != "a!" {
			t.Fatalf("round %d: b! left %d hypotheses allowing %s", round, m.StateCount(), m.AllowedOutputs())
		}
		checkOwnership(t, m)
	}
}

// BenchmarkMonitorWide measures one a! · b! cycle through a hypothesis set
// of the given width; the cost per cycle grows linearly with it.
func BenchmarkMonitorWide(b *testing.B) {
	for _, width := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			m, a, o, _ := fan(b, width)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.Output(a); err != nil {
					b.Fatal(err)
				}
				if err := m.Output(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
