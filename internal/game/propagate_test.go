package game

import (
	"os"
	"path/filepath"
	"testing"

	"tigatest/internal/dsl"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

// propagationWorkerCounts is the sweep the semantic-equality suite runs:
// the SCC-propagation engine from a pool of one to increasing concurrency.
var propagationWorkerCounts = []int{1, 2, 4, 8}

// checkWinSetsAcrossWorkers solves the same game at every worker count and
// every algorithm and asserts that the winning sets are semantically equal
// to the worklist reference's — the equality the unique least fixpoint
// guarantees regardless of propagation schedule.
func checkWinSetsAcrossWorkers(t *testing.T, env *tctl.ParseEnv, src string, algs []Algorithm) {
	t.Helper()
	f := tctl.MustParse(env, src)
	ref, err := worklistReference(env.Sys, f)
	if err != nil {
		t.Fatalf("%q worklist reference: %v", src, err)
	}
	refWin := winByState(t, ref)
	for _, alg := range algs {
		for _, w := range propagationWorkerCounts {
			res, err := Solve(env.Sys, f, Options{Algorithm: alg, Workers: w})
			if err != nil {
				t.Fatalf("%s %q workers=%d: %v", alg, src, w, err)
			}
			if res.Winnable != ref.Winnable {
				t.Fatalf("%s %q workers=%d: winnable=%v, worklist says %v", alg, src, w, res.Winnable, ref.Winnable)
			}
			if res.Stats.Nodes != ref.Stats.Nodes {
				t.Errorf("%s %q workers=%d: %d states, worklist explored %d", alg, src, w, res.Stats.Nodes, ref.Stats.Nodes)
			}
			got := winByState(t, res)
			if len(got) != len(refWin) {
				t.Fatalf("%s %q workers=%d: state spaces differ: %d vs %d", alg, src, w, len(got), len(refWin))
			}
			for k, rf := range refWin {
				gf, ok := got[k]
				if !ok {
					t.Fatalf("%s %q workers=%d: state %s missing", alg, src, w, k)
				}
				if !fedsEquivalent(rf, gf) {
					t.Errorf("%s %q workers=%d: win sets differ at %s:\n  worklist: %s\n  SCC:      %s",
						alg, src, w, k, rf, gf)
				}
			}
		}
	}
}

func TestPropagationSemanticEqualityLEP(t *testing.T) {
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	env := models.LEPEnv(sys, 3)
	for _, tp := range []struct {
		name, src string
	}{
		{"TP1", models.LEPTP1},
		{"TP2", models.LEPTP2},
		{"TP3", models.LEPTP3},
	} {
		t.Run(tp.name, func(t *testing.T) {
			algs := []Algorithm{OnTheFly, Backward}
			checkWinSetsAcrossWorkers(t, env, tp.src, algs)
		})
	}
}

// TestPropagationSemanticEqualityModelfiles runs the worker sweep on both
// shipped DSL models, so the cmd/tiga -file path is covered by the
// equality guarantee too.
func TestPropagationSemanticEqualityModelfiles(t *testing.T) {
	cases := []struct {
		file, src string
	}{
		{"coffeemachine.tga", "control: A<> Machine.Served and strength == 2"},
		{"beeper.tga", "control: A<> Plant.Idle and w >= 2"},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", "examples", "modelfiles", c.file))
			if err != nil {
				t.Fatal(err)
			}
			f, err := dsl.Parse(string(data))
			if err != nil {
				t.Fatal(err)
			}
			checkWinSetsAcrossWorkers(t, f.ParseEnv(), c.src, []Algorithm{OnTheFly, Backward})
		})
	}
}

// TestPropagationWorkersOption pins Options.PropagationWorkers: exploration
// and propagation concurrency can be set independently without changing
// the computed winning sets (checked against the worklist reference).
func TestPropagationWorkersOption(t *testing.T) {
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	f := tctl.MustParse(models.LEPEnv(sys, 3), models.LEPTP2)
	ref, err := worklistReference(sys, f)
	if err != nil {
		t.Fatal(err)
	}
	refWin := winByState(t, ref)
	for _, pw := range []int{1, 2, 8} {
		res, err := Solve(sys, f, Options{Workers: 4, PropagationWorkers: pw})
		if err != nil {
			t.Fatalf("prop-workers=%d: %v", pw, err)
		}
		if res.Winnable != ref.Winnable {
			t.Fatalf("prop-workers=%d: verdict flipped", pw)
		}
		got := winByState(t, res)
		for k, rf := range refWin {
			if gf, ok := got[k]; !ok || !fedsEquivalent(rf, gf) {
				t.Fatalf("prop-workers=%d: win set mismatch at %s", pw, k)
			}
		}
	}
}

// TestPropagationStatsCounters checks that Solve's SCC engine reports its
// per-phase effort: a condensation with at least one component, at least
// one propagation pass, and (for the full-graph backward solve) reevals.
// A full on-the-fly solve runs several passes, the last over the whole
// final graph.
// Batch solves run the seeded worklist and must report no SCC counters.
func TestPropagationStatsCounters(t *testing.T) {
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	f := tctl.MustParse(models.LEPEnv(sys, 3), models.LEPTP2)
	res, err := Solve(sys, f, Options{Algorithm: Backward, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SCCs <= 0 || st.SCCs > st.Nodes {
		t.Fatalf("SCCs=%d implausible for %d nodes", st.SCCs, st.Nodes)
	}
	if st.PropagationRounds < 1 {
		t.Fatalf("backward solve must run at least one propagation pass, got %d", st.PropagationRounds)
	}
	if st.Reevals == 0 || st.Updates == 0 {
		t.Fatalf("propagation counters empty: %+v", st)
	}

	// A full on-the-fly solve runs a pass per frontier round, and its last
	// pass condenses the whole final graph.
	otf, err := Solve(sys, f, Options{Algorithm: OnTheFly, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if otf.Stats.PropagationRounds <= 1 {
		t.Fatalf("on-the-fly solve ran %d propagation passes, want several", otf.Stats.PropagationRounds)
	}
	nodes := otf.debugNodes
	_, _, start := tarjanSCC(len(nodes),
		func(u int) int { return len(nodes[u].succs) },
		func(u, i int) int { return nodes[u].succs[i].target },
	)
	if otf.Stats.SCCs != len(start)-1 {
		t.Fatalf("last pass condensed %d components, the final graph has %d", otf.Stats.SCCs, len(start)-1)
	}

	b, err := NewBatch(sys, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	br, err := b.Solve(f, false)
	if err != nil {
		t.Fatal(err)
	}
	if br.Stats.SCCs != 0 || br.Stats.PropagationRounds != 0 || br.Stats.CrossSCCMessages != 0 {
		t.Fatalf("batch worklist must not report SCC counters: %+v", br.Stats)
	}
	if br.Stats.Reevals == 0 || br.Stats.Updates == 0 {
		t.Fatalf("batch worklist counters empty: %+v", br.Stats)
	}
}
