package main

import (
	"fmt"
	"time"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

// table1 is the paper's Table 1 at the largest size that fits a run: cold
// solves of LEP n=5 under TP2 and TP3, alternating. Nearly all the time is
// dbm, symbolic and the parallel game engine (explore, condense,
// propagate); execution, Batch, compile and the service are not used.
// n=6 takes seconds and over a GiB per solve and is left to cmd/lep.
var table1 = &workload{
	name:     "table1",
	why:      "Table 1 LEP n=5 TP2/TP3 cold solves: dbm, symbolic and the parallel game engine only",
	callers:  1,
	cycle:    2,
	tail:     85,
	coldTail: 85,
	start:    startTable1,
}

// table1Nodes is the number of symbolic states both cells explore. The
// parallel engine numbers and counts nodes deterministically for every
// worker count >= 2, with or without early termination, so the count is
// checked exactly; the solves pin Workers to 2 so the serial engine (which
// explores a different graph) is never selected by a 1-CPU host.
const table1Nodes = 45917

type table1Cell struct {
	name string
	f    *tctl.Formula
}

type table1Run struct {
	sys    *model.System
	cells  [2]table1Cell
	solves []solveSample // traced ops only; one caller, so unguarded
}

func startTable1(cfg *config) (instance, error) {
	const n = 5
	sys := models.LEP(models.LEPOptions{Nodes: n})
	env := models.LEPEnv(sys, n)
	r := &table1Run{sys: sys}
	for i, tp := range []struct{ name, src string }{{"TP2", models.LEPTP2}, {"TP3", models.LEPTP3}} {
		f, err := tctl.Parse(env, tp.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tp.name, err)
		}
		r.cells[i] = table1Cell{tp.name, f}
	}
	// The seed picks which cell opens the alternation.
	if cfg.seed%2 == 0 {
		r.cells[0], r.cells[1] = r.cells[1], r.cells[0]
	}
	if err := r.solve(r.cells[0], nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

func (r *table1Run) op(_, seq int, ot *opTrace) opResult {
	return opResult{cold: true, err: r.solve(r.cells[seq%2], ot)}
}

func (r *table1Run) solve(c table1Cell, ot *opTrace) error {
	t0 := time.Now()
	res, err := game.Solve(r.sys, c.f, game.Options{
		EarlyTermination: true,
		TimeBudget:       60 * time.Second,
		Workers:          2,
	})
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	if ot != nil {
		ot.child("game.solve", t0, t1)
		r.solves = append(r.solves, solveSample{dur: t1.Sub(t0), st: res.Stats})
	}
	if !res.Winnable {
		return fmt.Errorf("%s: not winnable (every LEP purpose is)", c.name)
	}
	if res.Stats.Nodes != table1Nodes {
		return fmt.Errorf("%s: explored %d states, want %d", c.name, res.Stats.Nodes, table1Nodes)
	}
	return nil
}

func (r *table1Run) layers(_ []span, ops []opRecord) map[string]float64 {
	m := map[string]float64{}
	gameLayers(m, r.solves, countTraced(ops))
	return m
}

func (r *table1Run) close() {}

// solveSample is one traced solve: the span the benchmark timed around it
// and the solver's own statistics.
type solveSample struct {
	dur   time.Duration
	delta bool // a campaign's mutant-analysis solve
	st    game.Stats
}

// gameLayers fills the game.* metrics from traced solves: means per solve,
// plus solves per op.
func gameLayers(m map[string]float64, solves []solveSample, ops int) {
	if len(solves) == 0 {
		return
	}
	n := float64(len(solves))
	var sum game.Stats
	var dur time.Duration
	for _, s := range solves {
		dur += s.dur
		sum.ExploreDuration += s.st.ExploreDuration
		sum.CondenseDuration += s.st.CondenseDuration
		sum.PropagateDuration += s.st.PropagateDuration
		sum.OverlayDuration += s.st.OverlayDuration
		sum.Nodes += s.st.Nodes
		sum.Transitions += s.st.Transitions
		sum.Reevals += s.st.Reevals
		sum.Updates += s.st.Updates
		sum.SCCs += s.st.SCCs
		sum.CrossSCCMessages += s.st.CrossSCCMessages
		sum.PropagationRounds += s.st.PropagationRounds
		sum.CondensationIncrementals += s.st.CondensationIncrementals
		sum.SkeletonHits += s.st.SkeletonHits
		sum.SkeletonMisses += s.st.SkeletonMisses
		sum.SkeletonCoreHits += s.st.SkeletonCoreHits
	}
	m["game.solves"] = n / float64(max(ops, 1))
	m["game.solve_ms"] = ms(dur) / n
	m["game.explore_ms"] = ms(sum.ExploreDuration) / n
	m["game.condense_ms"] = ms(sum.CondenseDuration) / n
	m["game.propagate_ms"] = ms(sum.PropagateDuration) / n
	m["game.overlay_ms"] = ms(sum.OverlayDuration) / n
	// Condensation runs inside propagation, so it is not subtracted again.
	m["game.unattributed_ms"] = ms(dur-sum.ExploreDuration-sum.PropagateDuration-sum.OverlayDuration) / n
	m["game.nodes"] = float64(sum.Nodes) / n
	m["game.transitions"] = float64(sum.Transitions) / n
	m["game.reevals"] = float64(sum.Reevals) / n
	m["game.updates"] = float64(sum.Updates) / n
	if sum.Reevals > 0 {
		m["game.update_yield"] = float64(sum.Updates) / float64(sum.Reevals)
	}
	m["game.sccs"] = float64(sum.SCCs) / n
	m["game.cross_scc_messages"] = float64(sum.CrossSCCMessages) / n
	m["game.propagation_rounds"] = float64(sum.PropagationRounds) / n
	m["game.condensation_incrementals"] = float64(sum.CondensationIncrementals) / n
	m["game.skeleton_hits"] = float64(sum.SkeletonHits) / n
	m["game.skeleton_misses"] = float64(sum.SkeletonMisses) / n
	m["game.core_hits"] = float64(sum.SkeletonCoreHits) / n
	if sum.ExploreDuration > 0 {
		m["game.transitions_per_explore_ms"] = float64(sum.Transitions) / ms(sum.ExploreDuration)
	}
}

func countTraced(ops []opRecord) int {
	n := 0
	for _, r := range ops {
		if r.traced {
			n++
		}
	}
	return n
}
