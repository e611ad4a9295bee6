package game

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tigatest/internal/expr"
	"tigatest/internal/model"
	"tigatest/internal/symbolic"
)

// simulator plays a synthesized strategy (controller) against a randomized
// adversarial opponent on the concrete semantics. Ties — the opponent
// firing exactly when the controller would act — are resolved in favour of
// the opponent, which is the semantics the solver must be sound for.
type simulator struct {
	t     *testing.T
	strat *Strategy
	rng   *rand.Rand
	node  int
	val   []int64
	bound int
	trace strings.Builder
}

func newSimulator(t *testing.T, strat *Strategy, seed int64) *simulator {
	sim := &simulator{
		t:     t,
		strat: strat,
		rng:   rand.New(rand.NewSource(seed)),
		node:  strat.InitialNode(),
		val:   make([]int64, strat.sys.NumClocks()-1),
	}
	sim.bound = strat.StampAt(sim.node, sim.val, tick)
	return sim
}

func (sim *simulator) logf(format string, args ...any) {
	fmt.Fprintf(&sim.trace, format+"\n", args...)
}

// enabledUncontrollable lists opponent transitions enabled at val+delta.
func (sim *simulator) enabledUncontrollable(delta int64) []*succRef {
	n := sim.strat.nodes[sim.node]
	at := make([]int64, len(sim.val))
	for i := range at {
		at[i] = sim.val[i] + delta
	}
	var out []*succRef
	for i := range n.succs {
		sc := &n.succs[i]
		if sc.trans.Kind != model.Uncontrollable {
			continue
		}
		if !sim.strat.guardHolds(sc.trans, at, tick) {
			continue
		}
		if !dataGuardsHold(sim.strat.sys, sc.trans, n.st.Vars) {
			continue
		}
		// The move must respect the location invariant (zone membership).
		if !n.st.Zone.ContainsPoint(at, tick) {
			continue
		}
		out = append(out, sc)
	}
	return out
}

func dataGuardsHold(sys *model.System, t *symbolic.Transition, vars []int32) bool {
	ctx := &expr.Ctx{Tbl: sys.Vars, Env: vars}
	for _, e := range t.Edges {
		ok, err := expr.Truth(ctx, e.Guard.Data)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// takeTransition moves the play along sc at the current valuation.
func (sim *simulator) takeTransition(sc *succRef, who string) bool {
	sim.val = ApplyResets(sc.trans, sim.val, tick)
	sim.node = sc.target
	newBound := sim.strat.StampAt(sim.node, sim.val, tick)
	sim.logf("%s takes %s -> node %d (stamp %d)", who, sc.trans.Label, sim.node, newBound)
	if newBound < 0 {
		sim.logf("landed outside winning region!")
		return false
	}
	if sim.bound > 0 && newBound >= sim.bound {
		sim.t.Errorf("progress measure violated: stamp %d -> %d", sim.bound, newBound)
		return false
	}
	sim.bound = newBound
	return true
}

// advance lets time pass by delta ticks.
func (sim *simulator) advance(delta int64) {
	for i := range sim.val {
		sim.val[i] += delta
	}
}

// run plays up to maxSteps strategy decisions; reports goal reached.
func (sim *simulator) run(maxSteps int) bool {
	for step := 0; step < maxSteps; step++ {
		if sim.strat.InGoal(sim.node, sim.val, tick) {
			sim.logf("goal reached at node %d, %v", sim.node, sim.val)
			return true
		}
		mv, err := sim.strat.MoveAt(sim.node, sim.val, tick, sim.bound)
		if err != nil {
			sim.logf("strategy error: %v", err)
			return false
		}
		switch mv.Kind {
		case MoveGoal:
			return true
		case MoveAction:
			// The opponent may race the controller and win the tie.
			if opp := sim.enabledUncontrollable(0); len(opp) > 0 && sim.rng.Intn(2) == 0 {
				if !sim.takeTransition(opp[sim.rng.Intn(len(opp))], "opponent(tie)") {
					return false
				}
				continue
			}
			var target *succRef
			n := sim.strat.nodes[sim.node]
			for i := range n.succs {
				if n.succs[i].trans == mv.Trans {
					target = &n.succs[i]
					break
				}
			}
			if target == nil {
				sim.logf("action transition not found in node succs")
				return false
			}
			if !sim.takeTransition(target, "controller") {
				return false
			}
		case MoveWait:
			d := mv.WaitTicks
			// If waiting d would leave the zone, the invariant blocks time:
			// the opponent is forced to move now (maximal-run semantics).
			exit := make([]int64, len(sim.val))
			for i := range exit {
				exit[i] = sim.val[i] + d
			}
			if !sim.strat.nodes[sim.node].st.Zone.ContainsPoint(exit, tick) {
				opp := sim.enabledUncontrollable(0)
				if len(opp) == 0 {
					sim.logf("time blocked with no enabled opponent move")
					return false
				}
				if !sim.takeTransition(opp[sim.rng.Intn(len(opp))], "opponent(forced)") {
					return false
				}
				continue
			}
			// Otherwise the opponent may interject at any moment in [0, d].
			fired := false
			if sim.rng.Intn(3) != 0 {
				// Try a few random interjection times, biased to boundaries.
				cands := []int64{0, d, sim.rng.Int63n(d + 1), sim.rng.Int63n(d + 1)}
				for _, c := range cands[sim.rng.Intn(len(cands)):] {
					opp := sim.enabledUncontrollable(c)
					if len(opp) > 0 {
						sim.advance(c)
						if !sim.takeTransition(opp[sim.rng.Intn(len(opp))], fmt.Sprintf("opponent(+%d)", c)) {
							return false
						}
						fired = true
						break
					}
				}
			}
			if !fired {
				sim.advance(d)
				sim.logf("waited %d ticks -> %v", d, sim.val)
			}
		default:
			sim.logf("no move at node %d, %v", sim.node, sim.val)
			return false
		}
	}
	sim.logf("step budget exhausted")
	return false
}
