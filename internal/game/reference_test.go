package game

import (
	"fmt"
	"math"

	"tigatest/internal/dbm"
	"tigatest/internal/model"
	"tigatest/internal/symbolic"
)

// The interpreted consultant: the test-only reference the compiled
// decision tables are checked against. Every consultation derives its
// regions on the fly (PredThroughEdge, federation subtraction) from the
// same builders Compile uses, so compiled and interpreted decisions must
// agree exactly — TestCompiledMatchesInterpreted checks single
// consultations, TestCompiledExecutionMatchesInterpreted whole runs.

// compile-time interface check: the reference stays interchangeable with
// the compiled tables.
var _ Consultant = (*Strategy)(nil)

// MaxConstant returns the largest constant of the compiled tables, which
// the reference derives its regions with; a strategy that does not compile
// reports no bound.
func (st *Strategy) MaxConstant() int {
	cs, err := st.Compile()
	if err != nil {
		return math.MaxInt32
	}
	return cs.MaxConstant()
}

// StampAt returns the stamp at which the scaled valuation entered the
// node's winning set, or -1 when it is not winning.
func (st *Strategy) StampAt(id int, val []int64, scale int64) int {
	n := st.nodes[id]
	for _, d := range n.deltas {
		if d.fed.ContainsPoint(val, scale) {
			return d.stamp
		}
	}
	return -1
}

// InGoal reports whether the valuation satisfies the test purpose at the
// node.
func (st *Strategy) InGoal(id int, val []int64, scale int64) bool {
	return st.nodes[id].goal.ContainsPoint(val, scale)
}

// MoveAt computes the strategy decision at a concrete scaled valuation
// inside node id. bound is the arrival stamp (pass 0 on entry to a node to
// derive it automatically); it enforces the progress measure.
func (st *Strategy) MoveAt(id int, val []int64, scale int64, bound int) (Move, error) {
	n := st.nodes[id]
	if n.goal.ContainsPoint(val, scale) {
		return Move{Kind: MoveGoal}, nil
	}
	if bound <= 0 {
		// Every point of a delta with stamp k is justified by the fixpoint
		// through goal states or targets with stamp strictly below k, so the
		// point's own stamp is the correct strict bound.
		bound = st.StampAt(id, val, scale)
		if bound < 0 {
			return Move{Kind: MoveNone}, fmt.Errorf("game: state outside winning region (node %d, %v)", id, val)
		}
	}

	// Per-successor action regions, computed once and shared between the
	// immediate-action passes and the wait-scan: every region the passes
	// reject is scanned again below, and PredThroughEdge is the expensive
	// part of a consultation. Regions are owned here and never retained by
	// the returned Move, so they are released on every exit path.
	regions := make([]*dbm.Federation, len(n.succs))
	defer func() {
		for _, r := range regions {
			if r != nil {
				r.Release()
			}
		}
	}()
	regionFor := func(i int) *dbm.Federation {
		if regions[i] == nil {
			regions[i] = st.actionRegion(n, &n.succs[i], bound)
		}
		return regions[i]
	}

	// Immediate action? Controllable moves take precedence over
	// cooperative hopes: an input the tester offers itself cannot be
	// denied, while a hoped-for output may never come — preferring hopes
	// can cycle through the winning region without ever progressing when
	// the plant resolves its choices the other way.
	for pass := 0; pass < 2; pass++ {
		for i := range n.succs {
			sc := &n.succs[i]
			if !st.moveUsable(sc.trans) {
				continue
			}
			ctrl := sc.trans.Kind == model.Controllable
			if (pass == 0) != ctrl {
				continue
			}
			region := regionFor(i)
			if region.ContainsPoint(val, scale) {
				if ctrl {
					return Move{Kind: MoveAction, Trans: sc.trans, Target: sc.target}, nil
				}
				// Cooperative: hope the plant produces this output; wait
				// for it until the end of its enabled window.
				wait := maxUsefulWait(region, val, scale)
				return Move{Kind: MoveWait, WaitTicks: wait, Hoped: sc.trans}, nil
			}
		}
	}

	// Time-blocked forcing: the plant must output, and every output wins.
	forced := st.forcedRegion(n, bound)
	defer forced.Release()
	if forced.ContainsPoint(val, scale) {
		return Move{Kind: MoveWait, WaitTicks: 1}, nil
	}

	// Wait until the trajectory enters the goal, an action region, or the
	// forced boundary.
	best := int64(-1)
	var hoped *symbolic.Transition
	consider := func(fed *dbm.Federation, h *symbolic.Transition) {
		for _, z := range fed.Zones() {
			iv, ok := z.DelayInterval(val, scale)
			if !ok {
				continue
			}
			d := iv.Lo
			if iv.LoStrict {
				d++
			}
			if d <= 0 {
				d = 1 // must make progress; zero handled above
			}
			if iv.Unbounded || d < iv.Hi || (d == iv.Hi && !iv.HiStrict) {
				if best < 0 || d < best {
					best = d
					hoped = h
				}
			}
		}
	}
	consider(n.goal, nil)
	consider(forced, nil)
	for i := range n.succs {
		sc := &n.succs[i]
		if !st.moveUsable(sc.trans) {
			continue
		}
		var h *symbolic.Transition
		if sc.trans.Kind != model.Controllable {
			h = sc.trans
		}
		consider(regionFor(i), h)
	}
	if best < 0 {
		return Move{Kind: MoveNone}, fmt.Errorf("game: no progress possible from node %d at %v (bound %d)", id, val, bound)
	}
	return Move{Kind: MoveWait, WaitTicks: best, Hoped: hoped}, nil
}

// maxUsefulWait returns how long the valuation may wait while remaining in
// the region (used to bound cooperative hopes).
func maxUsefulWait(fed *dbm.Federation, val []int64, scale int64) int64 {
	var best int64
	for _, z := range fed.Zones() {
		iv, ok := z.DelayInterval(val, scale)
		if !ok || iv.Lo > 0 || iv.LoStrict {
			continue
		}
		if iv.Unbounded {
			return scale * 1 << 20 // effectively forever
		}
		hi := iv.Hi
		if iv.HiStrict && hi > 0 {
			hi--
		}
		if hi > best {
			best = hi
		}
	}
	return best
}

// FollowTransition resolves the successor node after observing/taking a
// transition on channel chanIdx from node id at the scaled valuation val
// (the pre-transition point). It returns the matched transition and target
// node id. Deterministic specifications yield a unique match.
func (st *Strategy) FollowTransition(id int, chanIdx int, val []int64, scale int64) (*symbolic.Transition, int, error) {
	n := st.nodes[id]
	for i := range n.succs {
		sc := &n.succs[i]
		if sc.trans.Chan != chanIdx {
			continue
		}
		if st.guardHolds(sc.trans, val, scale) {
			return sc.trans, sc.target, nil
		}
	}
	name := "?"
	if chanIdx >= 0 && chanIdx < len(st.sys.Channels) {
		name = st.sys.Channels[chanIdx].Name
	}
	return nil, 0, fmt.Errorf("game: no enabled transition on %s from node %d at %v", name, id, val)
}

// guardHolds checks the clock guards of all edges of t at the valuation.
func (st *Strategy) guardHolds(t *symbolic.Transition, val []int64, scale int64) bool {
	return transGuardHolds(t, val, scale)
}
