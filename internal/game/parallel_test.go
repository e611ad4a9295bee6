package game

import (
	"fmt"
	"math/rand"
	"testing"

	"tigatest/internal/dbm"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/symbolic"
	"tigatest/internal/tctl"
)

// stateKey renders a symbolic state as a comparison key so nodes from two
// independent solves can be matched regardless of node numbering.
func stateKey(st *symbolic.State) string {
	return fmt.Sprintf("%v|%v|%x", st.Locs, st.Vars, st.Zone.Hash())
}

// winByState maps every node's symbolic state to its win federation.
func winByState(t *testing.T, res *Result) map[string]*dbm.Federation {
	t.Helper()
	m := make(map[string]*dbm.Federation, len(res.debugNodes))
	for _, n := range res.debugNodes {
		k := stateKey(n.st)
		if _, dup := m[k]; dup {
			t.Fatalf("duplicate symbolic state in node store: %s", k)
		}
		m[k] = n.win
	}
	return m
}

// fedsEquivalent compares two win federations semantically. Equals is
// always the deciding check: the SCC propagation schedule is free to
// produce different zone decompositions of the same winning set, so
// neither decomposition hashes nor zone counts may be asserted across
// engines or worker counts.
func fedsEquivalent(a, b *dbm.Federation) bool {
	return a.Equals(b)
}

// worklistReference solves f on sys with the schedule every Batch runs:
// depth-first exploration on one worker, then the seeded worklist over the
// whole graph. Solve propagates with SCC passes at every worker count, so
// the differential suites compare it against this schedule rather than
// against itself. Safety purposes work too (the worklist solves the dual).
func worklistReference(sys *model.System, f *tctl.Formula) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	s := newSolverShell(sys, f, Options{Algorithm: Backward, Workers: 1})
	init, err := s.ex.Initial()
	if err != nil {
		return nil, err
	}
	if _, err := s.addNode(init); err != nil {
		return nil, err
	}
	if err := s.exploreAll(); err != nil {
		return nil, err
	}
	// exploreAll queued every node in exploration order; the worklist
	// seeds them itself, in reverse id order.
	s.reevalQ = s.reevalQ[:0]
	clear(s.inReeval)
	if err := s.runWorklist(nil); err != nil {
		return nil, err
	}
	return s.finishResult()
}

// checkParallelAgreement solves the same game with the worklist reference
// and with Solve's SCC engine at one and at eight workers, under both
// algorithms, and asserts identical winnability, state spaces and per-node
// winning federations.
func checkParallelAgreement(t *testing.T, env *tctl.ParseEnv, src string) {
	t.Helper()
	f := tctl.MustParse(env, src)
	ref, err := worklistReference(env.Sys, f)
	if err != nil {
		t.Fatalf("worklist reference: %v", err)
	}
	rw := winByState(t, ref)
	for _, alg := range []Algorithm{OnTheFly, Backward} {
		for _, w := range []int{1, 8} {
			par, err := Solve(env.Sys, f, Options{Algorithm: alg, Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", alg, w, err)
			}
			if ref.Winnable != par.Winnable {
				t.Fatalf("%s %q workers=%d: worklist winnable=%v, SCC winnable=%v", alg, src, w, ref.Winnable, par.Winnable)
			}
			if ref.Stats.Nodes != par.Stats.Nodes {
				t.Errorf("%s %q workers=%d: worklist explored %d states, SCC %d", alg, src, w, ref.Stats.Nodes, par.Stats.Nodes)
			}
			pw := winByState(t, par)
			if len(rw) != len(pw) {
				t.Fatalf("%s %q workers=%d: state spaces differ: %d vs %d", alg, src, w, len(rw), len(pw))
			}
			for k, rf := range rw {
				pf, ok := pw[k]
				if !ok {
					t.Fatalf("%s %q workers=%d: state %s missing from SCC solve", alg, src, w, k)
				}
				if !fedsEquivalent(rf, pf) {
					t.Errorf("%s %q workers=%d: win sets differ at %s:\n  worklist: %s\n  SCC:      %s", alg, src, w, k, rf, pf)
				}
			}
		}
	}
}

func TestParallelMatchesSerialSmartLight(t *testing.T) {
	checkParallelAgreement(t, models.SmartLightEnv(models.SmartLight()), models.SmartLightGoal)
}

func TestParallelMatchesSerialLEP(t *testing.T) {
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	env := models.LEPEnv(sys, 3)
	for _, src := range []string{models.LEPTP1, models.LEPTP2} {
		checkParallelAgreement(t, env, src)
	}
}

func TestParallelMatchesSerialTrainGate(t *testing.T) {
	env := models.TrainGateEnv(models.TrainGate())
	for _, src := range []string{
		"control: A<> Gate.Closed",                       // reachability, winnable
		"control: A[] not Train.Crossing or Gate.Closed", // safety dual, winnable
		"control: A<> Train.Crossing and Gate.Closed",    // not winnable
	} {
		checkParallelAgreement(t, env, src)
	}
}

// TestParallelMatchesSerialLEP4 runs the benchmark-sized LEP instance
// (n=4, TP2) through the worklist reference and the on-the-fly SCC engine.
// This size caught a real bug during development — a zone shared with a
// node store entry was returned to the allocator and corrupted the state
// interning — that the n=3 games were too small to expose, so it stays
// pinned here.
func TestParallelMatchesSerialLEP4(t *testing.T) {
	if testing.Short() {
		t.Skip("LEP n=4 takes a second")
	}
	sys := models.LEP(models.LEPOptions{Nodes: 4})
	f := tctl.MustParse(models.LEPEnv(sys, 4), models.LEPTP2)
	ref, err := worklistReference(sys, f)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve(sys, f, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Winnable != par.Winnable || ref.Stats.Nodes != par.Stats.Nodes {
		t.Fatalf("schedules disagree: worklist %v/%d states, SCC %v/%d states",
			ref.Winnable, ref.Stats.Nodes, par.Winnable, par.Stats.Nodes)
	}
	sw, pw := winByState(t, ref), winByState(t, par)
	for k, sf := range sw {
		if pf, ok := pw[k]; !ok || !fedsEquivalent(sf, pf) {
			t.Fatalf("win set mismatch at %s", k)
		}
	}
}

// TestParallelDeterministic pins what stays deterministic in the parallel
// engine: exploration and wiring are sequentialized, so any two parallel
// worker counts produce the same node numbering and state space. The win
// sets are only semantically equal — the SCC propagation passes solve
// independent components concurrently, so their zone decompositions depend
// on the schedule (the fixpoint they converge to does not).
func TestParallelDeterministic(t *testing.T) {
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	f := tctl.MustParse(models.LEPEnv(sys, 3), models.LEPTP2)
	a, err := Solve(sys, f, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(sys, f, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.debugNodes) != len(b.debugNodes) {
		t.Fatalf("node counts differ: %d vs %d", len(a.debugNodes), len(b.debugNodes))
	}
	for i := range a.debugNodes {
		na, nb := a.debugNodes[i], b.debugNodes[i]
		if !na.st.EqualTo(nb.st) {
			t.Fatalf("node %d holds different states across worker counts", i)
		}
		if !fedsEquivalent(na.win, nb.win) {
			t.Fatalf("node %d win sets differ across worker counts:\n  w=2: %s\n  w=8: %s", i, na.win, nb.win)
		}
	}
}

// TestParallelStrategySimulation runs strategies synthesized at eight
// workers through the adversarial concrete-semantics simulator the
// single-worker strategies are validated with.
func TestParallelStrategySimulation(t *testing.T) {
	cases := []struct {
		name string
		env  *tctl.ParseEnv
		src  string
	}{
		{"smartlight", models.SmartLightEnv(models.SmartLight()), models.SmartLightGoal},
		{"traingate", models.TrainGateEnv(models.TrainGate()), "control: A<> Gate.Closed"},
	}
	{
		sys := models.LEP(models.LEPOptions{Nodes: 3})
		cases = append(cases, struct {
			name string
			env  *tctl.ParseEnv
			src  string
		}{"lep3-TP1", models.LEPEnv(sys, 3), models.LEPTP1})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Solve(c.env.Sys, tctl.MustParse(c.env, c.src), Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Winnable || res.Strategy == nil {
				t.Fatalf("%s must be winnable with a strategy", c.src)
			}
			for run := 0; run < 10; run++ {
				sim := newSimulator(t, res.Strategy, int64(1000+run))
				if !sim.run(400) {
					t.Fatalf("run %d: parallel-engine strategy lost the game\ntrace: %s", run, sim.trace.String())
				}
			}
		})
	}
}

// TestParallelRandomGames cross-checks the SCC engine's winnability answer
// against the worklist reference over a pile of small random games,
// including early termination.
func TestParallelRandomGames(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	goal := "control: A<> P.C"
	for iter := 0; iter < 60; iter++ {
		s := randomGame(rng)
		f := tctl.MustParse(mkEnv(s), goal)
		ref, err1 := worklistReference(s, f)
		par, err2 := Solve(s, f, Options{Workers: 4, MaxNodes: 4000})
		if err1 != nil || err2 != nil {
			t.Fatalf("iter %d: err1=%v err2=%v", iter, err1, err2)
		}
		if ref.Winnable != par.Winnable {
			t.Fatalf("iter %d: worklist=%v SCC=%v", iter, ref.Winnable, par.Winnable)
		}
		early, err3 := Solve(s, f, Options{Workers: 4, MaxNodes: 4000, EarlyTermination: true})
		if err3 != nil {
			t.Fatalf("iter %d: early: %v", iter, err3)
		}
		if early.Winnable != ref.Winnable {
			t.Fatalf("iter %d: early SCC=%v worklist=%v", iter, early.Winnable, ref.Winnable)
		}
	}
}

// TestWorkersDefault asserts that a zero Workers option solves (using all
// cores) and agrees with the worklist reference.
func TestWorkersDefault(t *testing.T) {
	sys := models.SmartLight()
	f := tctl.MustParse(models.SmartLightEnv(sys), models.SmartLightGoal)
	def, err := Solve(sys, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := worklistReference(sys, f)
	if err != nil {
		t.Fatal(err)
	}
	if def.Winnable != one.Winnable || def.Stats.Nodes != one.Stats.Nodes {
		t.Fatalf("default workers disagrees with the worklist: %v/%d vs %v/%d",
			def.Winnable, def.Stats.Nodes, one.Winnable, one.Stats.Nodes)
	}
}
