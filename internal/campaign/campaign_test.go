package campaign

import (
	"bytes"
	"strings"
	"testing"

	"tigatest/internal/adapter"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

func smartLightOptions() Options {
	return Options{
		Coverage: CoverEdges,
		Workers:  4,
		Seed:     1,
		Solver:   game.Options{Workers: 1},
	}
}

// TestCampaignSmartLightEdgeCoverage is the acceptance scenario: edge
// coverage on the running example must cover 100% of coverable goals and
// kill at least one mutant per applicable operator.
func TestCampaignSmartLightEdgeCoverage(t *testing.T) {
	sys := models.SmartLight()
	rep, err := Run(sys, models.SmartLightEnv(sys), smartLightOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.CoveragePct != 100 {
		t.Errorf("coverage %.1f%%, want 100%%", rep.Summary.CoveragePct)
	}
	if rep.Summary.Covered == 0 || rep.Summary.SuiteSize == 0 {
		t.Fatalf("degenerate plan: %+v", rep.Summary)
	}
	for _, g := range rep.Goals {
		switch g.Status {
		case StatusCovered:
			if g.By < 0 {
				t.Errorf("covered goal %s lacks a covering entry", g.Name)
			}
		case StatusMissed:
			// A winnable strategy failing its conformant run is an engine
			// defect, never an acceptable planning outcome.
			t.Errorf("goal %s missed: %s", g.Name, g.Reason)
		default:
			if g.Reason == "" {
				t.Errorf("%s goal %s lacks a reason", g.Status, g.Name)
			}
		}
	}

	// The conformant implementation must never fail a sound strategy.
	if rep.Matrix[0].IUT != "conformant" {
		t.Fatalf("row 0 must be the conformant implementation, got %s", rep.Matrix[0].IUT)
	}
	for _, c := range rep.Matrix[0].Cells {
		if c.Fail > 0 {
			t.Errorf("conformant implementation failed entry %d: %+v", c.Entry, c.Reasons)
		}
	}

	// Mutation analysis: every applicable operator kills at least once.
	if rep.Mutation == nil || len(rep.Mutation.Operators) == 0 {
		t.Fatal("mutation report missing")
	}
	for _, op := range rep.Mutation.Operators {
		if op.Killed == 0 {
			t.Errorf("operator %s: no mutant killed (%d mutants)", op.Operator, op.Mutants)
		}
	}

	// Fail-on-unexpected-quiescence, observed through the matrix: dropping
	// the forced L1->Dim edge leaves the implementation quiet past the
	// invariant deadline, which some strategy must catch as a delay
	// violation.
	foundQuiescenceFail := false
	for _, row := range rep.Matrix {
		if row.Operator != "drop-edge" {
			continue
		}
		for _, c := range row.Cells {
			for _, rc := range c.Reasons {
				if strings.HasPrefix(rc.Reason, "fail") && strings.Contains(rc.Reason, "stayed quiet") {
					foundQuiescenceFail = true
				}
			}
		}
	}
	if !foundQuiescenceFail {
		t.Error("no drop-edge mutant was caught via the quiescence (delay violation) path")
	}
}

// TestCampaignReportReproducible: byte-identical canonical JSON across two
// runs with the same seed at Workers == 4.
func TestCampaignReportReproducible(t *testing.T) {
	render := func() []byte {
		sys := models.SmartLight()
		opts := smartLightOptions()
		opts.Repeats = 2
		rep, err := Run(sys, models.SmartLightEnv(sys), opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ across runs with the same seed:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestCampaignLazyRecoversL5Touch is the regression test for the ROADMAP
// item: the eager conformant determinization fires bright!/dim! the moment
// L5 is entered, so the L5--touch?->L2 edge (which needs the light to
// out-wait the user's 1-unit reaction time inside the Tp<=2 window) is
// unreachable eagerly. The lazy retry — outputs at window close — must
// recover it: status recovered, covering entry flagged lazy, and the goal
// attained in the conformant-lazy matrix row.
func TestCampaignLazyRecoversL5Touch(t *testing.T) {
	sys := models.SmartLight()
	rep, err := Run(sys, models.SmartLightEnv(sys), smartLightOptions())
	if err != nil {
		t.Fatal(err)
	}
	const goal = "edge:IUT.L5--touch?->L2"
	var gr *GoalReport
	for i := range rep.Goals {
		if rep.Goals[i].Name == goal {
			gr = &rep.Goals[i]
		}
	}
	if gr == nil {
		t.Fatalf("goal %s not enumerated", goal)
	}
	if gr.Status != StatusRecovered {
		t.Fatalf("goal %s must be recovered by the lazy retry, got %s (%s)", goal, gr.Status, gr.Reason)
	}
	if gr.By < 0 || !rep.Suite[gr.By].Lazy {
		t.Fatalf("covering entry must be flagged lazy: %+v", gr)
	}
	if !gr.Attained {
		t.Fatalf("recovered goal must be attained in the conformant-lazy row: %+v", gr)
	}
	if rep.Summary.Recovered == 0 {
		t.Fatalf("summary must count recovered goals: %+v", rep.Summary)
	}
	lazyRow := false
	for _, row := range rep.Matrix {
		if row.IUT == LazyRowName {
			lazyRow = true
			for _, c := range row.Cells {
				if c.Fail > 0 {
					t.Errorf("lazy determinization is conformant; it must never fail a sound strategy: entry %d %+v", c.Entry, c.Reasons)
				}
			}
		}
	}
	if !lazyRow {
		t.Fatal("matrix must include the conformant-lazy row when the suite has lazy entries")
	}

	// Opting out restores the eager-only plan: the goal stays ungranted.
	opts := smartLightOptions()
	opts.DisableLazyRetry = true
	rep2, err := Run(sys, models.SmartLightEnv(sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range rep2.Goals {
		if g.Name == goal && g.Status != StatusUngranted {
			t.Fatalf("with the retry disabled %s must stay ungranted, got %s", goal, g.Status)
		}
	}
	for _, row := range rep2.Matrix {
		if row.IUT == LazyRowName {
			t.Fatal("no lazy entries => no conformant-lazy row")
		}
	}
}

// TestSharedCoreSolveMatchesPerClone pins the ghost-overlay construction
// to the per-clone baseline at the solve level: for every edge goal of
// smartlight and traingate, splitting the shared core skeleton
// (game.Batch.SolveEdgeGhost) must reproduce exactly what exploring the
// instrumented clone produces — winnability, node and transition counts
// (node numbering mirrors the engine schedule, so ids correspond), and the
// winning federations themselves — at both the serial and the batched
// exploration schedule.
func TestSharedCoreSolveMatchesPerClone(t *testing.T) {
	for _, name := range []string{"smartlight", "traingate"} {
		sys, _, plant, _, err := models.ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(plant) == 0 {
			plant = texec.GuessPlantProcs(sys)
		}
		for _, workers := range []int{1, 4} {
			shared, err := game.NewBatch(sys, game.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range EnumerateGoals(sys, plant, CoverEdges) {
				isys, f, err := instrumentEdge(sys, g.EdgeID, g.Purpose)
				if err != nil {
					t.Fatal(err)
				}
				clone, err := game.NewBatch(isys, game.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for _, coop := range []bool{false, true} {
					want, err := clone.Solve(f, coop)
					if err != nil {
						t.Fatalf("%s %s coop=%v: per-clone solve: %v", name, g.Name, coop, err)
					}
					got, err := shared.SolveEdgeGhost(isys, f, g.EdgeID, coop)
					if err != nil {
						t.Fatalf("%s %s coop=%v: overlay solve: %v", name, g.Name, coop, err)
					}
					if got.Winnable != want.Winnable {
						t.Fatalf("%s workers=%d %s coop=%v: overlay winnable=%v, per-clone %v",
							name, workers, g.Name, coop, got.Winnable, want.Winnable)
					}
					if got.Stats.Nodes != want.Stats.Nodes || got.Stats.Transitions != want.Stats.Transitions {
						t.Fatalf("%s workers=%d %s coop=%v: overlay graph %d/%d, per-clone %d/%d",
							name, workers, g.Name, coop, got.Stats.Nodes, got.Stats.Transitions,
							want.Stats.Nodes, want.Stats.Transitions)
					}
					for id, w := range want.Win {
						if !got.Win[id].Equals(w) {
							t.Fatalf("%s workers=%d %s coop=%v: winning set of node %d differs",
								name, workers, g.Name, coop, id)
						}
					}
					if got.Winnable && got.Strategy.Cooperative() != want.Strategy.Cooperative() {
						t.Fatalf("%s %s: strategy mode differs", name, g.Name)
					}
					if got.Stats.SkeletonCoreHits+got.Stats.SkeletonCoreMisses != 1 {
						t.Fatalf("%s %s: overlay solve must touch the core skeleton exactly once: %+v", name, g.Name, got.Stats)
					}
					if coop && got.Stats.SkeletonHits != 1 {
						t.Fatalf("%s %s: cooperative solve must reuse the strict solve's overlay: %+v", name, g.Name, got.Stats)
					}
				}
			}
		}
	}
}

// TestCampaignSharedCoreReportByteIdentical is the tentpole acceptance
// check: edge-coverage campaign reports with shared-core planning must be
// byte-identical to the per-clone baseline — same statuses, matrix and
// lazy-recovered rows — on both shipped models, while the volatile plan
// statistics show the core skeleton being explored once and reused for
// every further edge goal.
func TestCampaignSharedCoreReportByteIdentical(t *testing.T) {
	for _, name := range []string{"smartlight", "traingate"} {
		sys, env, plant, _, err := models.ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		run := func(disable bool) ([]byte, *PlanStats) {
			opts := Options{
				Coverage:          CoverEdges,
				Plant:             plant,
				Mutants:           -1, // planning equivalence is the point; skip mutant execution
				Workers:           4,
				Seed:              1,
				Solver:            game.Options{Workers: 1},
				DisableSharedCore: disable,
			}
			rep, err := Run(sys, env, opts)
			if err != nil {
				t.Fatalf("%s shared=%v: %v", name, !disable, err)
			}
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf, false); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), rep.Volatile.Planning
		}
		sharedRep, sharedStats := run(false)
		cloneRep, cloneStats := run(true)
		if !bytes.Equal(sharedRep, cloneRep) {
			t.Fatalf("%s: shared-core report differs from the per-clone baseline:\n--- shared ---\n%s\n--- per-clone ---\n%s",
				name, sharedRep, cloneRep)
		}
		if sharedStats.SkeletonCoreMisses != 1 {
			t.Errorf("%s: shared-core planning must explore the core exactly once, got %+v", name, sharedStats)
		}
		if sharedStats.SkeletonCoreHits == 0 {
			t.Errorf("%s: shared-core planning must reuse the core skeleton, got %+v", name, sharedStats)
		}
		if cloneStats.SkeletonCoreHits != 0 || cloneStats.SkeletonCoreMisses != 0 {
			t.Errorf("%s: per-clone planning must not touch the shared core, got %+v", name, cloneStats)
		}
		if sharedStats.Solves != cloneStats.Solves {
			t.Errorf("%s: both planners must run the same solves: shared %d, per-clone %d",
				name, sharedStats.Solves, cloneStats.Solves)
		}
	}
}

// choiceModel builds a minimal plant with a genuine output choice and a
// forced branch: after go? the plant must (invariant x<=2) answer a! or
// b!, and the tester cannot force which — locations A and B are reachable
// only cooperatively. After go2? the single output c! is forced, so C is
// strictly reachable and a quiescent implementation fails the deadline.
func choiceModel() *model.System {
	s := model.NewSystem("choice")
	x := s.AddClock("x")
	goCh := s.AddChannel("go", model.Controllable)
	go2Ch := s.AddChannel("go2", model.Controllable)
	aCh := s.AddChannel("a", model.Uncontrollable)
	bCh := s.AddChannel("b", model.Uncontrollable)
	cCh := s.AddChannel("c", model.Uncontrollable)

	resetX := []model.ClockReset{{Clock: x}}
	inv2 := []model.ClockConstraint{model.LE(x, 2)}
	p := s.AddProcess("P")
	init := p.AddLocation(model.Location{Name: "Init"})
	wait := p.AddLocation(model.Location{Name: "Wait", Invariant: inv2})
	locA := p.AddLocation(model.Location{Name: "A"})
	locB := p.AddLocation(model.Location{Name: "B"})
	wait2 := p.AddLocation(model.Location{Name: "Wait2", Invariant: inv2})
	locC := p.AddLocation(model.Location{Name: "C"})
	s.AddEdge(p, model.Edge{Src: init, Dst: wait, Dir: model.Receive, Chan: goCh, Resets: resetX})
	s.AddEdge(p, model.Edge{Src: wait, Dst: locA, Dir: model.Emit, Chan: aCh})
	s.AddEdge(p, model.Edge{Src: wait, Dst: locB, Dir: model.Emit, Chan: bCh})
	s.AddEdge(p, model.Edge{Src: init, Dst: wait2, Dir: model.Receive, Chan: go2Ch, Resets: resetX})
	s.AddEdge(p, model.Edge{Src: wait2, Dst: locC, Dir: model.Emit, Chan: cCh})

	env := s.AddProcess("Env")
	e0 := env.AddLocation(model.Location{Name: "E0"})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Emit, Chan: goCh})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Emit, Chan: go2Ch})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: aCh})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: bCh})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: cCh})
	return s
}

// outputPolicy builds a DetPolicy over the plant's emit edges: enabledCh
// lists the channels the implementation is willing to produce, preferred
// fires first.
func outputPolicy(impl *model.System, enabled map[string]bool, preferred string) *tiots.DetPolicy {
	pol := &tiots.DetPolicy{ByEdge: map[int]tiots.OutputDecision{}, Priority: map[int]int{}}
	for _, p := range impl.Procs {
		for ei := range p.Edges {
			e := &p.Edges[ei]
			if e.Dir != model.Emit {
				continue
			}
			name := impl.Channels[e.Chan].Name
			pol.ByEdge[e.ID] = tiots.OutputDecision{Enabled: enabled[name]}
			if name == preferred {
				pol.Priority[e.ID] = -1
			}
		}
	}
	return pol
}

// TestCampaignCooperativeInconclusiveMatrix plans a campaign whose A/B
// goals need cooperative strategies and checks the verdict matrix rows: a
// helpful plant passes, a conformant-but-unhelpful plant is inconclusive
// (never blamed as fail), and a quiescent plant fails via the delay
// violation.
func TestCampaignCooperativeInconclusiveMatrix(t *testing.T) {
	sys := choiceModel()
	env := &tctl.ParseEnv{Sys: sys, Ranges: map[string]tctl.Range{}}
	pi, _ := sys.ProcByName("P")
	opts := (&Options{
		Coverage: CoverLocations,
		Plant:    []int{pi},
		Workers:  4,
		Solver:   game.Options{Workers: 1},
	}).withDefaults(sys)

	suite, err := Plan(sys, env, &opts)
	if err != nil {
		t.Fatal(err)
	}
	goalFor := func(goal string) *PlannedGoal {
		for _, pg := range suite.Goals {
			if pg.Name == goal {
				return pg
			}
		}
		t.Fatalf("no goal %s", goal)
		return nil
	}
	entryFor := func(goal string) *SuiteEntry {
		pg := goalFor(goal)
		if pg.Status != StatusCovered {
			t.Fatalf("goal %s not covered: %s (%s)", goal, pg.Status, pg.Reason)
		}
		return suite.Entries[pg.By]
	}
	entryA := entryFor("loc:P.A")
	entryC := entryFor("loc:P.C")
	if !entryA.Cooperative {
		t.Fatal("goal A needs a cooperative strategy")
	}
	if entryC.Cooperative {
		t.Fatal("C is strictly reachable (forced single output); its entry must not be cooperative")
	}
	// The conformant interpreter resolves the a/b race toward a (lower
	// edge id fires first), so B can never be attained against it: the
	// plan must classify it as an ungranted cooperative hope rather than
	// claim coverage it cannot execute.
	if gb := goalFor("loc:P.B"); gb.Status != StatusUngranted || !strings.Contains(gb.Reason, "conformant run") {
		t.Fatalf("goal B must be ungranted with a conformant-run reason, got %s (%s)", gb.Status, gb.Reason)
	}

	impl := model.ExtractPlant(sys, opts.Plant, "Stub")
	both := map[string]bool{"a": true, "b": true}
	rows := []*IUTRow{
		{Name: "prefers-a", Factory: LocalIUT(impl, 0, outputPolicy(impl, both, "a"))},
		{Name: "prefers-b", Factory: LocalIUT(impl, 0, outputPolicy(impl, both, "b"))},
		{Name: "quiescent", Factory: LocalIUT(impl, 0, outputPolicy(impl, map[string]bool{}, ""))},
	}
	matrix := Execute(suite, rows, &opts)

	cell := func(row int, e *SuiteEntry) CellTally { return matrix[row][e.Index] }

	// Helpful plant: the hoped-for output arrives, the purpose passes.
	if c := cell(0, entryA); c.Pass == 0 || c.Fail > 0 {
		t.Errorf("prefers-a vs goal A: want pass, got %+v", c)
	}
	// Unhelpful but conformant plant: the cooperative miss is
	// inconclusive and must NOT be blamed on the implementation.
	c := cell(1, entryA)
	if c.Fail > 0 {
		t.Errorf("prefers-b vs goal A: cooperative miss must not fail, got %+v", c)
	}
	if c.Incon == 0 {
		t.Errorf("prefers-b vs goal A: want inconclusive, got %+v", c)
	}
	hasReason := false
	for _, rc := range c.Reasons {
		// Either shape of a cooperative miss: the plant stayed quiet
		// until the hope expired, or it answered with the other branch.
		if strings.Contains(rc.Reason, "plant did not produce") ||
			strings.Contains(rc.Reason, "outside the hoped-for region") {
			hasReason = true
		}
	}
	if !hasReason {
		t.Errorf("prefers-b vs goal A: want a cooperative-miss reason, got %+v", c.Reasons)
	}
	// Quiescent plant vs a cooperative hope: still inconclusive — the
	// strategy gives up when the hoped-for window closes, before the
	// specification can convict the silence.
	if qa := cell(2, entryA); qa.Fail > 0 || qa.Incon == 0 {
		t.Errorf("quiescent vs goal A: cooperative hope must end inconclusive, got %+v", qa)
	}
	// Quiescent plant vs the strict forced-output strategy: staying quiet
	// past the x<=2 deadline is a tioco delay violation — Fail, observed
	// through the matrix.
	qc := cell(2, entryC)
	if qc.Fail == 0 {
		t.Errorf("quiescent vs goal C: want fail via delay violation, got %+v", qc)
	}
	quiet := false
	for _, rc := range qc.Reasons {
		if strings.Contains(rc.Reason, "stayed quiet") {
			quiet = true
		}
	}
	if !quiet {
		t.Errorf("quiescent vs goal C: want quiescence reason, got %+v", qc.Reasons)
	}
}

// TestRunnerSharedWithTestexec pins the cell-runner surface cmd/testexec
// relies on: Synthesize falls back to the cooperative game and RunCell
// tallies repeated runs.
func TestRunnerSharedWithTestexec(t *testing.T) {
	sys := models.SmartLight()
	env := models.SmartLightEnv(sys)
	plant := models.SmartLightPlant(sys)

	f := tctl.MustParse(env, "control: A<> IUT.Bright and z < 1")
	res, err := Synthesize(sys, f, game.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Winnable || !res.Strategy.Cooperative() {
		t.Fatalf("expected cooperative fallback, got winnable=%v", res.Winnable)
	}

	strict, err := Synthesize(sys, tctl.MustParse(env, models.SmartLightGoal), game.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strict.Winnable || strict.Strategy.Cooperative() {
		t.Fatal("standard purpose must be strictly winnable")
	}

	impl := model.ExtractPlant(sys, plant, "Stub")
	r := &Runner{Strategy: strict.Strategy, Exec: texec.Options{PlantProcs: plant}}
	tally := r.RunCell(LocalIUT(impl, 0, nil), 3, 7)
	if tally.Pass != 3 || tally.Verdict() != texec.Pass {
		t.Fatalf("conformant cell must pass all repeats: %+v", tally)
	}
}

// TestCampaignRemoteRow hosts the conformant implementation behind the
// concurrent adapter server and adds it as a matrix row: parallel cells
// each dial their own session, and the remote row must mirror the
// in-process conformant row.
func TestCampaignRemoteRow(t *testing.T) {
	sys := models.SmartLight()
	impl := model.ExtractPlant(sys, models.SmartLightPlant(sys), "Stub")
	srv, err := adapter.ServeFactory("127.0.0.1:0", func() tiots.IUT {
		return tiots.NewDetIUT(impl, tiots.Scale, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opts := smartLightOptions()
	opts.Mutants = -1 // no mutants: just conformant vs remote
	opts.RemoteAddr = srv.Addr()
	rep, err := Run(sys, models.SmartLightEnv(sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: conformant, conformant-lazy (smartlight recovers L5--touch?->L2
	// lazily), remote. Locate by name; the remote row must mirror the
	// eager conformant one (the remote host runs the eager determinization).
	rowByName := func(name string) *RowReport {
		for i := range rep.Matrix {
			if rep.Matrix[i].IUT == name {
				return &rep.Matrix[i]
			}
		}
		t.Fatalf("no matrix row %q", name)
		return nil
	}
	local, remote := rowByName("conformant"), rowByName("remote:"+srv.Addr())
	for i := range local.Cells {
		l, r := local.Cells[i], remote.Cells[i]
		if l.Pass != r.Pass || l.Fail != r.Fail || l.Incon != r.Incon {
			t.Errorf("entry %d: remote row diverges from conformant: local %+v remote %+v", i, l, r)
		}
	}
}
