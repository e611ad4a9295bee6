package game

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"tigatest/internal/dbm"
	"tigatest/internal/model"
	"tigatest/internal/symbolic"
	"tigatest/internal/tctl"
)

// Strategy is a state-based winning strategy (Def. 6 of the paper): a
// partial function from semantic states to moves — offer a controllable
// input now, or wait (the paper's λ). It retains the solved game graph so a
// test driver can follow observed transitions.
//
// Progress is guaranteed by stamps: every growth of a winning set is
// numbered, and the strategy only takes an action when the target state
// entered the winning set strictly earlier than the current one, so every
// discrete step decreases the stamp and the play reaches the goal.
type Strategy struct {
	sys     *model.System
	formula *tctl.Formula
	ex      *symbolic.Explorer
	nodes   []*node
	coop    bool // cooperative strategy: may rely on plant outputs
}

// MoveKind classifies strategy decisions.
type MoveKind int

const (
	// MoveGoal: the current state satisfies the test purpose.
	MoveGoal MoveKind = iota
	// MoveAction: offer the controllable transition now.
	MoveAction
	// MoveWait: let time pass for WaitTicks, then reconsult (outputs may
	// preempt the wait).
	MoveWait
	// MoveNone: the state is outside the winning region (should not happen
	// during supervised runs).
	MoveNone
)

func (k MoveKind) String() string {
	switch k {
	case MoveGoal:
		return "goal"
	case MoveAction:
		return "action"
	case MoveWait:
		return "wait"
	default:
		return "none"
	}
}

// Move is one strategy decision.
type Move struct {
	Kind      MoveKind
	Trans     *symbolic.Transition // MoveAction: transition to take now
	Target    int                  // MoveAction: node reached
	WaitTicks int64                // MoveWait: scaled delay until the next decision point
	// Cooperative waits may be bounded by a hoped-for plant output rather
	// than a controller action; then Hoped names that transition.
	Hoped *symbolic.Transition
}

func (m Move) String() string {
	switch m.Kind {
	case MoveGoal:
		return "goal reached"
	case MoveAction:
		return "offer " + m.Trans.Label
	case MoveWait:
		if m.Hoped != nil {
			return fmt.Sprintf("wait %d ticks (hoping for %s)", m.WaitTicks, m.Hoped.Label)
		}
		return fmt.Sprintf("wait %d ticks", m.WaitTicks)
	default:
		return "no move"
	}
}

// buildStrategy packages the solved graph (reachability objective).
func (s *solver) buildStrategy() *Strategy {
	return &Strategy{
		sys:     s.sys,
		formula: s.formula,
		ex:      s.ex,
		nodes:   s.nodes,
		coop:    s.opts.TreatAllControllable,
	}
}

// System returns the specification the strategy was synthesized for.
func (st *Strategy) System() *model.System { return st.sys }

// Formula returns the test purpose.
func (st *Strategy) Formula() *tctl.Formula { return st.formula }

// Cooperative reports whether the strategy relies on helpful plant outputs.
func (st *Strategy) Cooperative() bool { return st.coop }

// NumNodes returns the number of symbolic states in the strategy graph.
func (st *Strategy) NumNodes() int { return len(st.nodes) }

// InitialNode returns the id of the initial symbolic state.
func (st *Strategy) InitialNode() int { return 0 }

// NodeState exposes the symbolic state of a node (for diagnostics).
func (st *Strategy) NodeState(id int) *symbolic.State { return st.nodes[id].st }

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

// winBefore collects the target's winning deltas with stamp strictly below
// the bound (bound <= 0 means no bound).
func winBefore(n *node, bound int) *dbm.Federation {
	fed := dbm.NewFederation(n.win.Dim())
	for _, d := range n.deltas {
		if bound <= 0 || d.stamp < bound {
			fed.Union(d.fed)
		}
	}
	return fed
}

// actionRegion computes where in the node the controllable transition sc
// may be taken so that the play lands in the target's winning set with
// stamp below bound.
func (st *Strategy) actionRegion(n *node, sc *succRef, bound int) *dbm.Federation {
	target := st.nodes[sc.target]
	w := winBefore(target, bound)
	if w.IsEmpty() {
		return w
	}
	p := st.ex.PredThroughEdge(n.st, &sc.trans, w)
	// The winBefore wrapper shares its zones with the target's deltas:
	// recycle the wrapper only (Release would corrupt the strategy graph).
	w.Recycle()
	return p
}

// moveUsable reports whether the transition may be relied on by this
// strategy: controllable transitions always; uncontrollable ones only in
// cooperative mode.
func (st *Strategy) moveUsable(t *symbolic.Transition) bool {
	return t.Kind == model.Controllable || st.coop
}

// forcedRegion mirrors the solver's forced-move analysis under the stamp
// bound: time-blocked points where the plant must produce some output and
// every output it can produce lands in an earlier-stamped winning set.
func (st *Strategy) forcedRegion(n *node, bound int) *dbm.Federation {
	dim := st.sys.NumClocks()
	// Mirror of the solver's forcedGood guard: forcing needs an opponent
	// edge into a non-empty winning set (winBefore is a subset of win), so
	// consultations at nodes without one — every node of a cooperative
	// strategy's hope chain, most nodes elsewhere — skip the boundary
	// construction entirely. Exact: someWin below would be empty.
	anyForced := false
	for i := range n.succs {
		sc := &n.succs[i]
		if sc.trans.Kind != model.Controllable && !st.nodes[sc.target].win.IsEmpty() {
			anyForced = true
			break
		}
	}
	if !anyForced {
		return dbm.NewFederation(dim)
	}
	var boundary *dbm.Federation
	if st.sys.IsUrgent(n.st.Locs) {
		boundary = n.zoneFed.Clone()
	} else {
		boundary = dbm.SubtractDBM(n.st.Zone, n.st.Zone.DelayableInterior())
	}
	if boundary.IsEmpty() {
		return boundary
	}
	someWin := dbm.NewFederation(dim)
	someEscape := dbm.NewFederation(dim)
	for i := range n.succs {
		sc := &n.succs[i]
		if sc.trans.Kind == model.Controllable {
			continue
		}
		target := st.nodes[sc.target]
		enabled := n.st.Zone
		for _, e := range sc.trans.Edges {
			enabled = model.ConstrainZone(enabled, e.Guard.Clocks)
			if enabled == nil {
				break
			}
		}
		if enabled == nil {
			continue
		}
		p := st.ex.PredThroughEdge(n.st, &sc.trans, winBefore(target, bound))
		someWin.Union(p)
		someEscape.Union(dbm.FedFromDBM(dim, enabled).Subtract(p))
	}
	if someWin.IsEmpty() {
		return dbm.NewFederation(dim)
	}
	return boundary.Intersect(someWin).Subtract(someEscape)
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
			if !st.moveUsable(&sc.trans) {
				continue
			}
			ctrl := sc.trans.Kind == model.Controllable
			if (pass == 0) != ctrl {
				continue
			}
			region := regionFor(i)
			if region.ContainsPoint(val, scale) {
				if ctrl {
					return Move{Kind: MoveAction, Trans: &sc.trans, Target: sc.target}, nil
				}
				// Cooperative: hope the plant produces this output; wait
				// for it until the end of its enabled window.
				wait := maxUsefulWait(region, val, scale)
				return Move{Kind: MoveWait, WaitTicks: wait, Hoped: &sc.trans}, nil
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
			if iv.Unbounded || d <= iv.Hi || (d == iv.Hi && !iv.HiStrict) {
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
		if !st.moveUsable(&sc.trans) {
			continue
		}
		var h *symbolic.Transition
		if sc.trans.Kind != model.Controllable {
			h = &sc.trans
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
		if st.guardHolds(&sc.trans, val, scale) {
			return &sc.trans, sc.target, nil
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

// transGuardHolds checks the clock guards of all edges of t at the scaled
// valuation (shared by the interpreted and the compiled consultation path).
func transGuardHolds(t *symbolic.Transition, val []int64, scale int64) bool {
	for _, e := range t.Edges {
		for _, c := range e.Guard.Clocks {
			vi, vj := int64(0), int64(0)
			if c.I > 0 {
				vi = val[c.I-1]
			}
			if c.J > 0 {
				vj = val[c.J-1]
			}
			if !c.Bound.SatisfiedBy(vi-vj, scale) {
				return false
			}
		}
	}
	return true
}

// ApplyResets returns the valuation after the transition's clock resets,
// leaving val unchanged.
func ApplyResets(t *symbolic.Transition, val []int64, scale int64) []int64 {
	out := append([]int64(nil), val...)
	ResetClocks(t, out, scale)
	return out
}

// ResetClocks applies the transition's clock resets to val in place.
func ResetClocks(t *symbolic.Transition, val []int64, scale int64) {
	for _, e := range t.Edges {
		for _, r := range e.Resets {
			val[r.Clock-1] = int64(r.Value) * scale
		}
	}
}

// --- safety strategies ------------------------------------------------

// buildSafetyStrategy packages the dual solve: win federations hold the
// LOSING sets; a safe controller keeps the play outside them.
func (s *solver) buildSafetyStrategy() *Strategy {
	return &Strategy{sys: s.sys, formula: s.formula, ex: s.ex, nodes: s.nodes}
}

// SafeAt reports whether the valuation is safe (outside the losing set) at
// the node; only meaningful for safety strategies.
func (st *Strategy) SafeAt(id int, val []int64, scale int64) bool {
	return !st.nodes[id].win.ContainsPoint(val, scale)
}

// SafeActions lists the controllable transitions that keep the play safe
// when taken at the valuation.
func (st *Strategy) SafeActions(id int, val []int64, scale int64) []*symbolic.Transition {
	n := st.nodes[id]
	var out []*symbolic.Transition
	for i := range n.succs {
		sc := &n.succs[i]
		if sc.trans.Kind != model.Controllable {
			continue
		}
		if !st.guardHolds(&sc.trans, val, scale) {
			continue
		}
		after := ApplyResets(&sc.trans, val, scale)
		if st.SafeAt(sc.target, after, scale) {
			out = append(out, &sc.trans)
		}
	}
	return out
}

// --- rendering ----------------------------------------------------------

// zoneLabel renders a zone with the system's clock names.
func zoneLabel(sys *model.System, z *dbm.DBM) string {
	s := z.String()
	for i := len(sys.Clocks) - 1; i >= 1; i-- {
		s = strings.ReplaceAll(s, fmt.Sprintf("x%d", i), sys.Clocks[i].Name)
	}
	return s
}

func fedLabel(sys *model.System, f *dbm.Federation) string {
	if f.IsEmpty() {
		return "false"
	}
	parts := make([]string, 0, f.Size())
	for _, z := range f.Zones() {
		parts = append(parts, zoneLabel(sys, z))
	}
	return strings.Join(parts, "  or  ")
}

// varsLabel renders non-zero variables compactly.
func varsLabel(sys *model.System, vars []int32) string {
	var parts []string
	for i := 0; i < sys.Vars.NumDecls(); i++ {
		d := sys.Vars.Decl(i)
		for k := 0; k < d.Len; k++ {
			v := vars[d.Offset+k]
			if v == 0 {
				continue
			}
			if d.Len > 1 {
				parts = append(parts, fmt.Sprintf("%s[%d]=%d", d.Name, k, v))
			} else {
				parts = append(parts, fmt.Sprintf("%s=%d", d.Name, v))
			}
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " {" + strings.Join(parts, ",") + "}"
}

// Print renders the strategy in the style of the paper's Fig. 5: for every
// reachable winning state, the sub-zones in which to act, to wait, or where
// the goal already holds.
func (st *Strategy) Print(w io.Writer) {
	fmt.Fprintf(w, "Winning strategy for %s (%d symbolic states)\n", st.formula, len(st.nodes))
	ids := st.winningNodeIDs()
	for _, id := range ids {
		n := st.nodes[id]
		if n.win.IsEmpty() {
			continue
		}
		fmt.Fprintf(w, "\nState %s%s  zone %s\n", st.sys.LocationString(n.st.Locs), varsLabel(st.sys, n.st.Vars), zoneLabel(st.sys, n.st.Zone))
		if !n.goal.IsEmpty() {
			fmt.Fprintf(w, "  goal:   %s\n", fedLabel(st.sys, n.goal))
		}
		covered := n.goal.Clone()
		for i := range n.succs {
			sc := &n.succs[i]
			if !st.moveUsable(&sc.trans) {
				continue
			}
			region := st.actionRegion(n, sc, 0)
			region = region.Subtract(n.goal)
			if region.IsEmpty() {
				continue
			}
			verb := "offer"
			if sc.trans.Kind != model.Controllable {
				verb = "hope for"
			}
			fmt.Fprintf(w, "  when %s: %s %s\n", fedLabel(st.sys, region), verb, sc.trans.Label)
			covered.Union(region)
		}
		waits := n.win.Subtract(covered)
		if !waits.IsEmpty() {
			fmt.Fprintf(w, "  when %s: wait (λ)\n", fedLabel(st.sys, waits))
		}
	}
}

// winningNodeIDs orders nodes: initial first, then by id, skipping nodes
// with empty winning sets.
func (st *Strategy) winningNodeIDs() []int {
	var ids []int
	for _, n := range st.nodes {
		if !n.win.IsEmpty() {
			ids = append(ids, n.id)
		}
	}
	sort.Ints(ids)
	return ids
}

// stratJSON is the JSON export shape.
type stratJSON struct {
	Formula string          `json:"formula"`
	States  []stratNodeJSON `json:"states"`
}

type stratNodeJSON struct {
	ID        int      `json:"id"`
	Locations string   `json:"locations"`
	Zone      string   `json:"zone"`
	Goal      string   `json:"goal,omitempty"`
	Actions   []string `json:"actions,omitempty"`
}

// MarshalJSON exports a human-auditable summary of the strategy.
func (st *Strategy) MarshalJSON() ([]byte, error) {
	out := stratJSON{Formula: st.formula.String()}
	for _, id := range st.winningNodeIDs() {
		n := st.nodes[id]
		nj := stratNodeJSON{
			ID:        n.id,
			Locations: st.sys.LocationString(n.st.Locs) + varsLabel(st.sys, n.st.Vars),
			Zone:      zoneLabel(st.sys, n.st.Zone),
		}
		if !n.goal.IsEmpty() {
			nj.Goal = fedLabel(st.sys, n.goal)
		}
		for i := range n.succs {
			sc := &n.succs[i]
			if !st.moveUsable(&sc.trans) {
				continue
			}
			region := st.actionRegion(n, sc, 0).Subtract(n.goal)
			if region.IsEmpty() {
				continue
			}
			nj.Actions = append(nj.Actions, fmt.Sprintf("%s @ %s", sc.trans.Label, fedLabel(st.sys, region)))
		}
		out.States = append(out.States, nj)
	}
	return json.Marshal(out)
}
