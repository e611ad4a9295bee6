package tiots

import (
	"testing"

	"tigatest/internal/expr"
	"tigatest/internal/model"
)

// beeper: Idle --press?--> Armed(inv w<=5) --beep! (w in [2,4])--> Idle.
// The environment process provides the press!/beep? counterparts.
func beeper() (*model.System, int, int) {
	s := model.NewSystem("beeper")
	w := s.AddClock("w")
	press := s.AddChannel("press", model.Controllable)
	beep := s.AddChannel("beep", model.Uncontrollable)

	p := s.AddProcess("Plant")
	idle := p.AddLocation(model.Location{Name: "Idle"})
	armed := p.AddLocation(model.Location{Name: "Armed", Invariant: []model.ClockConstraint{model.LE(w, 5)}})
	s.AddEdge(p, model.Edge{Src: idle, Dst: armed, Dir: model.Receive, Chan: press, Resets: []model.ClockReset{{Clock: w}}})
	s.AddEdge(p, model.Edge{Src: armed, Dst: idle, Dir: model.Emit, Chan: beep,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(w, 2), model.LE(w, 4)}}})

	env := s.AddProcess("Env")
	e0 := env.AddLocation(model.Location{Name: "E0"})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Emit, Chan: press})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: beep})
	return s, press, beep
}

func TestInterpEnabledAndTake(t *testing.T) {
	s, press, _ := beeper()
	ip := NewInterp(s, Scale)
	en := ip.Enabled()
	if len(en) != 1 || en[0].Chan != press {
		t.Fatalf("initially only press must be enabled, got %v", en)
	}
	if err := ip.Take(en[0]); err != nil {
		t.Fatal(err)
	}
	if ip.St.Locs[0] != 1 {
		t.Fatal("plant must be Armed after press")
	}
	// beep is not yet enabled (w<2), and Armed has no press? edge.
	if en := ip.Enabled(); len(en) != 0 {
		t.Fatalf("nothing must be enabled at w=0 in Armed, got %+v", en)
	}
	ip.Advance(2 * Scale)
	found := false
	for _, e := range ip.Enabled() {
		if e.Kind == model.Uncontrollable {
			found = true
		}
	}
	if !found {
		t.Fatal("beep must be enabled at w=2")
	}
}

func TestMaxDelayInvariant(t *testing.T) {
	s, press, _ := beeper()
	ip := NewInterp(s, Scale)
	if d := ip.MaxDelay(100 * Scale); d != 100*Scale {
		t.Fatalf("Idle is unconstrained; MaxDelay = %d", d)
	}
	for _, e := range ip.Enabled() {
		if e.Chan == press {
			ip.Take(e)
		}
	}
	if d := ip.MaxDelay(100 * Scale); d != 5*Scale {
		t.Fatalf("Armed allows exactly 5 units, got %d ticks", d)
	}
	ip.Advance(3 * Scale)
	if d := ip.MaxDelay(100 * Scale); d != 2*Scale {
		t.Fatalf("after 3 units, 2 remain; got %d ticks", d)
	}
}

func TestMaxDelayStrictInvariant(t *testing.T) {
	s := model.NewSystem("strict")
	x := s.AddClock("x")
	p := s.AddProcess("P")
	p.AddLocation(model.Location{Name: "A", Invariant: []model.ClockConstraint{model.LT(x, 3)}})
	ip := NewInterp(s, Scale)
	// x<3 strictly: may advance to 3*Scale-1 ticks only.
	if d := ip.MaxDelay(100 * Scale); d != 3*Scale-1 {
		t.Fatalf("strict invariant must stop one tick short, got %d", d)
	}
}

func TestMaxDelayUrgent(t *testing.T) {
	s := model.NewSystem("urgent")
	s.AddClock("x")
	p := s.AddProcess("P")
	p.AddLocation(model.Location{Name: "U", Urgent: true})
	ip := NewInterp(s, Scale)
	if d := ip.MaxDelay(10); d != 0 {
		t.Fatalf("urgent location must freeze time, got %d", d)
	}
}

func TestDetIUTDefaultFiresASAP(t *testing.T) {
	s, press, beep := beeper()
	iut := NewDetIUT(s, Scale, nil)
	if err := iut.Offer(press); err != nil {
		t.Fatal(err)
	}
	out := iut.Advance(10 * Scale)
	if out == nil {
		t.Fatal("default policy fires as soon as enabled; expected beep")
	}
	if out.Chan != beep {
		t.Fatalf("expected beep, got channel %d", out.Chan)
	}
	if out.After != 2*Scale {
		t.Fatalf("beep must fire exactly when the window opens (2 units), got %d ticks", out.After)
	}
}

func TestDetIUTOffsetPolicy(t *testing.T) {
	s, press, beep := beeper()
	// Find the beep edge id.
	var beepEdge int
	for _, e := range s.Procs[0].Edges {
		if e.Dir == model.Emit {
			beepEdge = e.ID
		}
	}
	iut := NewDetIUT(s, Scale, &DetPolicy{ByEdge: map[int]OutputDecision{
		beepEdge: {Enabled: true, Offset: Scale + Scale/2}, // 1.5 units into the window
	}})
	iut.Offer(press)
	out := iut.Advance(10 * Scale)
	if out == nil || out.Chan != beep {
		t.Fatal("expected beep")
	}
	if out.After != 3*Scale+Scale/2 {
		t.Fatalf("window opens at 2, offset 1.5 => fire at 3.5 units; got %d ticks", out.After)
	}
}

func TestDetIUTLazyFiresAtWindowClose(t *testing.T) {
	s, press, beep := beeper()
	iut := NewDetIUT(s, Scale, LazyPolicy())
	if err := iut.Offer(press); err != nil {
		t.Fatal(err)
	}
	out := iut.Advance(10 * Scale)
	if out == nil || out.Chan != beep {
		t.Fatal("lazy policy must still fire the bounded output")
	}
	// Guard closes at w=4 (before the w<=5 invariant): the lazy instant.
	if out.After != 4*Scale {
		t.Fatalf("lazy beep must fire at the guard close (4 units), got %d ticks", out.After)
	}
}

func TestDetIUTLazyStrictBoundFiresOneTickEarly(t *testing.T) {
	s := model.NewSystem("strictbeeper")
	w := s.AddClock("w")
	press := s.AddChannel("press", model.Controllable)
	beep := s.AddChannel("beep", model.Uncontrollable)
	p := s.AddProcess("Plant")
	idle := p.AddLocation(model.Location{Name: "Idle"})
	armed := p.AddLocation(model.Location{Name: "Armed", Invariant: []model.ClockConstraint{model.LE(w, 5)}})
	s.AddEdge(p, model.Edge{Src: idle, Dst: armed, Dir: model.Receive, Chan: press, Resets: []model.ClockReset{{Clock: w}}})
	s.AddEdge(p, model.Edge{Src: armed, Dst: idle, Dir: model.Emit, Chan: beep,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(w, 2), model.LT(w, 4)}}})
	env := s.AddProcess("Env")
	e0 := env.AddLocation(model.Location{Name: "E0"})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Emit, Chan: press})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: beep})

	iut := NewDetIUT(s, Scale, LazyPolicy())
	iut.Offer(press)
	out := iut.Advance(10 * Scale)
	if out == nil || out.Chan != beep {
		t.Fatal("expected beep")
	}
	if out.After != 4*Scale-1 {
		t.Fatalf("strict guard w<4: last conformant tick is 4*Scale-1, got %d", out.After)
	}
}

func TestDetIUTLazyUnboundedWindowStaysQuiescent(t *testing.T) {
	s := model.NewSystem("unbounded")
	w := s.AddClock("w")
	press := s.AddChannel("press", model.Controllable)
	beep := s.AddChannel("beep", model.Uncontrollable)
	p := s.AddProcess("Plant")
	idle := p.AddLocation(model.Location{Name: "Idle"})
	armed := p.AddLocation(model.Location{Name: "Armed"}) // no invariant
	s.AddEdge(p, model.Edge{Src: idle, Dst: armed, Dir: model.Receive, Chan: press, Resets: []model.ClockReset{{Clock: w}}})
	s.AddEdge(p, model.Edge{Src: armed, Dst: idle, Dir: model.Emit, Chan: beep,
		Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(w, 2)}}}) // no upper bound
	env := s.AddProcess("Env")
	e0 := env.AddLocation(model.Location{Name: "E0"})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Emit, Chan: press})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: beep})

	iut := NewDetIUT(s, Scale, LazyPolicy())
	iut.Offer(press)
	if out := iut.Advance(100 * Scale); out != nil {
		t.Fatalf("nothing closes the window; the lazy plant must stay quiescent, got %+v", out)
	}
}

func TestDetIUTLazyExplicitDecisionWins(t *testing.T) {
	s, press, beep := beeper()
	var beepEdge int
	for _, e := range s.Procs[0].Edges {
		if e.Dir == model.Emit {
			beepEdge = e.ID
		}
	}
	pol := LazyPolicy()
	pol.ByEdge = map[int]OutputDecision{beepEdge: {Enabled: true, Offset: Scale / 2}}
	iut := NewDetIUT(s, Scale, pol)
	iut.Offer(press)
	out := iut.Advance(10 * Scale)
	if out == nil || out.Chan != beep {
		t.Fatal("expected beep")
	}
	if out.After != 2*Scale+Scale/2 {
		t.Fatalf("explicit offset overrides laziness: window opens at 2, offset 0.5 => 2.5 units; got %d ticks", out.After)
	}
}

func TestDetIUTDisabledOutputForcedByInvariant(t *testing.T) {
	s, press, _ := beeper()
	var beepEdge int
	for _, e := range s.Procs[0].Edges {
		if e.Dir == model.Emit {
			beepEdge = e.ID
		}
	}
	// Policy disables the output entirely — but the invariant w<=5 blocks
	// time, so the implementation is forced to emit at w=5... except the
	// guard closes at w=4; the window having closed, the IUT is timelocked
	// and Advance reports the forced fallback at the block point (w=4 is
	// the last chance; our fallback fires the earliest enabled output when
	// blocked, which happens at w=5 where no output is enabled => nil).
	iut := NewDetIUT(s, Scale, &DetPolicy{ByEdge: map[int]OutputDecision{
		beepEdge: {Enabled: false},
	}})
	iut.Offer(press)
	out := iut.Advance(10 * Scale)
	if out != nil {
		t.Fatalf("with the window closed at the block point there is nothing to fire; got %+v", out)
	}
}

func TestDetIUTOfferIgnoredWhenDisabled(t *testing.T) {
	s, _, beep := beeper()
	iut := NewDetIUT(s, Scale, nil)
	// beep is an output channel; offering it as input does nothing.
	if err := iut.Offer(beep); err != nil {
		t.Fatal(err)
	}
	if iut.State().Locs[0] != 0 {
		t.Fatal("state must be unchanged")
	}
}

func TestDetIUTReset(t *testing.T) {
	s, press, _ := beeper()
	iut := NewDetIUT(s, Scale, nil)
	iut.Offer(press)
	iut.Advance(3 * Scale)
	iut.Reset()
	if iut.State().Locs[0] != 0 || iut.State().Val[0] != 0 {
		t.Fatal("reset must restore the initial state")
	}
}

func TestDetIUTRaceResolvedByPriority(t *testing.T) {
	// Two outputs enabled simultaneously; priority picks deterministically.
	s := model.NewSystem("race")
	s.AddClock("x")
	a := s.AddChannel("a", model.Uncontrollable)
	b := s.AddChannel("b", model.Uncontrollable)
	p := s.AddProcess("P")
	l0 := p.AddLocation(model.Location{Name: "L0"})
	l1 := p.AddLocation(model.Location{Name: "L1"})
	ea := s.AddEdge(p, model.Edge{Src: l0, Dst: l1, Dir: model.Emit, Chan: a})
	s.AddEdge(p, model.Edge{Src: l0, Dst: l1, Dir: model.Emit, Chan: b})
	env := s.AddProcess("Env")
	e0 := env.AddLocation(model.Location{Name: "E0"})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: a})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: b})

	// Default priority: lower edge ID (the a edge).
	iut := NewDetIUT(s, Scale, nil)
	out := iut.Advance(Scale)
	if out == nil || out.Chan != a {
		t.Fatalf("default priority must fire a first, got %+v", out)
	}
	// Invert priorities.
	iut2 := NewDetIUT(s, Scale, &DetPolicy{Priority: map[int]int{ea: 100}})
	out2 := iut2.Advance(Scale)
	if out2 == nil || out2.Chan != b {
		t.Fatalf("inverted priority must fire b first, got %+v", out2)
	}
}

func TestWindowReopensResetAge(t *testing.T) {
	// Guard window [1,2]; policy offset 0.5: fires at 1.5. After returning
	// to Idle and re-arming, the second fire must again be at 1.5 relative
	// to re-arm.
	s, press, beep := beeper()
	var beepEdge int
	for _, e := range s.Procs[0].Edges {
		if e.Dir == model.Emit {
			beepEdge = e.ID
		}
	}
	iut := NewDetIUT(s, Scale, &DetPolicy{ByEdge: map[int]OutputDecision{
		beepEdge: {Enabled: true, Offset: Scale / 2},
	}})
	iut.Offer(press)
	out := iut.Advance(10 * Scale)
	if out == nil || out.After != 2*Scale+Scale/2 {
		t.Fatalf("first fire at 2.5 units, got %+v", out)
	}
	iut.Offer(press)
	out = iut.Advance(10 * Scale)
	if out == nil || out.After != 2*Scale+Scale/2 {
		t.Fatalf("second fire must also be at 2.5 units after re-arm, got %+v", out)
	}
	_ = beep
}

func TestWindowAgeSurvivesChunkedAdvance(t *testing.T) {
	// Guard window [2,4]; offset 0.5: fires 2.5 units after press whether
	// time is advanced in one call or in quarter-unit chunks, so a window's
	// age must carry over between Advance calls.
	s, press, _ := beeper()
	var beepEdge int
	for _, e := range s.Procs[0].Edges {
		if e.Dir == model.Emit {
			beepEdge = e.ID
		}
	}
	iut := NewDetIUT(s, Scale, &DetPolicy{ByEdge: map[int]OutputDecision{
		beepEdge: {Enabled: true, Offset: Scale / 2},
	}})
	for round := 0; round < 2; round++ {
		iut.Offer(press)
		var elapsed int64
		for {
			out := iut.Advance(Scale / 4)
			if out != nil {
				elapsed += out.After
				break
			}
			elapsed += Scale / 4
			if elapsed > 10*Scale {
				t.Fatalf("round %d: beep never fired", round)
			}
		}
		if elapsed != 2*Scale+Scale/2 {
			t.Fatalf("round %d: beep after %d ticks, want %d", round, elapsed, 2*Scale+Scale/2)
		}
	}
}

func TestEnabledRepeatsTransitions(t *testing.T) {
	// Enumerating twice yields equal transitions; Take works on either.
	s, _, _ := beeper()
	ip := NewInterp(s, Scale)
	first, second := ip.Enabled(), ip.Enabled()
	if len(first) != 1 || len(second) != 1 || first[0].Label != "press" || second[0].Label != "press" ||
		len(second[0].Edges) != 2 || second[0].Edges[0] != first[0].Edges[0] || second[0].Edges[1] != first[0].Edges[1] {
		t.Fatalf("enumerations differ: %+v vs %+v", first, second)
	}
	if err := ip.Take(second[0]); err != nil || ip.St.Locs[0] != 1 {
		t.Fatalf("take press: %v, locs %v", err, ip.St.Locs)
	}
}

func TestTraceFormatting(t *testing.T) {
	s, press, beep := beeper()
	tr := Trace{
		{Delay: 5 * Scale, Chan: -1},
		{Chan: press, Kind: model.Controllable},
		{Delay: Scale + Scale/2, Chan: -1},
		{Chan: beep, Kind: model.Uncontrollable},
	}
	got := tr.Format(s, Scale)
	want := "5.000 · press? · 1.500 · beep!"
	if got != want {
		t.Fatalf("trace format = %q, want %q", got, want)
	}
	if tr.TotalDelay() != 6*Scale+Scale/2 {
		t.Fatalf("total delay = %d", tr.TotalDelay())
	}
}

func TestVariablesInGuardsAndAssigns(t *testing.T) {
	s := model.NewSystem("vars")
	s.AddClock("x")
	n := s.Vars.MustDeclare(expr.VarDecl{Name: "n", Min: 0, Max: 5, Len: 1})
	_ = n
	nv := expr.MustVar(s.Vars, "n", nil)
	p := s.AddProcess("P")
	l := p.AddLocation(model.Location{Name: "L"})
	s.AddEdge(p, model.Edge{
		Src: l, Dst: l, Dir: model.NoSync, Kind: model.Controllable,
		Guard:   model.Guard{Data: expr.NewBin(expr.OpLt, nv, expr.Lit(2))},
		Assigns: []expr.Assign{{Target: nv, Value: expr.NewBin(expr.OpAdd, nv, expr.Lit(1))}},
	})
	ip := NewInterp(s, Scale)
	for i := 0; i < 2; i++ {
		en := ip.Enabled()
		if len(en) != 1 {
			t.Fatalf("iteration %d: expected the loop edge enabled, got %d", i, len(en))
		}
		ip.Take(en[0])
	}
	if len(ip.Enabled()) != 0 {
		t.Fatal("guard n<2 must disable the edge after two takes")
	}
	if ip.St.Vars[0] != 2 {
		t.Fatalf("n = %d, want 2", ip.St.Vars[0])
	}
}

func TestCommittedPreemption(t *testing.T) {
	s := model.NewSystem("committed")
	s.AddClock("x")
	p := s.AddProcess("P")
	c := p.AddLocation(model.Location{Name: "C", Committed: true})
	n := p.AddLocation(model.Location{Name: "N"})
	s.AddEdge(p, model.Edge{Src: c, Dst: n, Dir: model.NoSync, Kind: model.Controllable})
	q := s.AddProcess("Q")
	q0 := q.AddLocation(model.Location{Name: "Q0"})
	q.AddLocation(model.Location{Name: "Q1"})
	s.AddEdge(q, model.Edge{Src: q0, Dst: 1, Dir: model.NoSync, Kind: model.Controllable})

	ip := NewInterp(s, Scale)
	en := ip.Enabled()
	if len(en) != 1 || en[0].Edges[0].Proc != 0 {
		t.Fatalf("committed location must preempt: got %+v", en)
	}
	if ip.MaxDelay(10) != 0 {
		t.Fatal("committed location must freeze time")
	}
}
