// Package tiots implements concrete Timed I/O Transition System semantics
// (Def. 4 of the paper): timed runs of a TIOGA network under a virtual
// clock, and deterministic implementation-under-test interpreters obeying
// the paper's test hypotheses (§2.5): input-enabled, deterministic,
// output-urgent and with isolated outputs.
//
// Time is integral ticks; Scale ticks make one model time unit, so guards
// with integer constants have exactly representable boundaries and strict
// bounds can be crossed by a single tick.
//
// Key types: IUT (the driver-facing implementation interface: Reset /
// Offer / Advance / Seed), Interp (the specification interpreter) and
// DetIUT with DetPolicy — the determinization layer resolving permitted
// output nondeterminism (eager by default, window-close under LazyPolicy,
// per-edge decisions and priorities for adversarial test fixtures).
//
// Concurrency contract: interpreters and DetIUTs are stateful and
// single-caller; the model they interpret is shared read-only, so
// concurrent test runs each construct their own instance (the campaign
// IUTFactory / adapter.ServeFactory pattern).
package tiots

import (
	"encoding/binary"
	"fmt"
	"strings"

	"tigatest/internal/expr"
	"tigatest/internal/model"
)

// Scale is the default number of ticks per model time unit.
const Scale = int64(240)

// Event is one observable step of a timed trace: either a delay or an
// action on a channel.
type Event struct {
	Delay int64 // ticks; meaningful when Chan < 0
	Chan  int   // channel index, or -1 for a delay event
	Kind  model.Kind
}

// IsDelay reports whether the event is a time delay.
func (e Event) IsDelay() bool { return e.Chan < 0 }

// Trace is an observable timed trace (alternating delays and actions; see
// TTr(s) in the paper).
type Trace []Event

// Format renders the trace like "5.0 · touch? · 1.5 · dim!".
func (tr Trace) Format(sys *model.System, scale int64) string {
	var b strings.Builder
	for i, e := range tr {
		if i > 0 {
			b.WriteString(" · ")
		}
		if e.IsDelay() {
			whole := e.Delay / scale
			frac := (e.Delay % scale) * 1000 / scale
			fmt.Fprintf(&b, "%d.%03d", whole, frac)
		} else {
			mark := "?"
			if e.Kind == model.Uncontrollable {
				mark = "!"
			}
			b.WriteString(sys.Channels[e.Chan].Name)
			b.WriteString(mark)
		}
	}
	return b.String()
}

// TotalDelay sums the delays of the trace in ticks.
func (tr Trace) TotalDelay() int64 {
	var d int64
	for _, e := range tr {
		if e.IsDelay() {
			d += e.Delay
		}
	}
	return d
}

// State is a concrete configuration of a network.
type State struct {
	Locs []int
	Vars []int32
	Val  []int64 // clock values in ticks (clock i+1 at Val[i])
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	return &State{
		Locs: append([]int(nil), s.Locs...),
		Vars: append([]int32(nil), s.Vars...),
		Val:  append([]int64(nil), s.Val...),
	}
}

// Interp is a concrete interpreter for a network of timed automata. It is
// used both to animate specifications and — wrapped by DetPolicy — to act
// as a simulated black-box implementation.
type Interp struct {
	Sys   *model.System
	Scale int64
	St    *State

	// ctx is the one expression context guards and assignments evaluate
	// in, bound to ctxState's variables; evalCtx rebinds it when St has
	// been replaced (Reset does).
	ctx      expr.Ctx
	ctxState *State
	// transitions memoizes, by the global ID of the internal or emitting
	// edge, the EnabledTransition values enabled so far, so repeated
	// enumeration shares one Edges slice and Label per transition instead
	// of rebuilding them.
	transitions [][]EnabledTransition
}

// NewInterp creates an interpreter at the initial state.
func NewInterp(sys *model.System, scale int64) *Interp {
	if scale <= 0 {
		scale = Scale
	}
	return &Interp{
		Sys:   sys,
		Scale: scale,
		St: &State{
			Locs: sys.InitialLocations(),
			Vars: sys.Vars.InitialEnv(),
			Val:  make([]int64, sys.NumClocks()-1),
		},
	}
}

// Reset returns the interpreter to the initial state.
func (ip *Interp) Reset() {
	ip.St = &State{
		Locs: ip.Sys.InitialLocations(),
		Vars: ip.Sys.Vars.InitialEnv(),
		Val:  make([]int64, ip.Sys.NumClocks()-1),
	}
}

// EnabledTransition describes a concrete enabled transition.
type EnabledTransition struct {
	Chan  int // -1 internal
	Kind  model.Kind
	Edges []*model.Edge
	Label string
}

// sigKey identifies a transition: its channel (-1 internal) plus the IDs
// of its one or two participating edges (e1 is -1 for a single edge).
type sigKey struct {
	ch, e0, e1 int
}

func sigOf(t EnabledTransition) sigKey {
	k := sigKey{ch: t.Chan, e0: t.Edges[0].ID, e1: -1}
	if len(t.Edges) > 1 {
		k.e1 = t.Edges[1].ID
	}
	return k
}

// evalCtx returns the interpreter's expression context bound to the
// current variable environment.
func (ip *Interp) evalCtx() *expr.Ctx {
	if ip.ctxState != ip.St {
		ip.ctx, ip.ctxState = expr.Ctx{Tbl: ip.Sys.Vars, Env: ip.St.Vars}, ip.St
	}
	return &ip.ctx
}

// guardHolds checks the clock and data guards of one edge at the current
// state.
func (ip *Interp) guardHolds(e *model.Edge) bool {
	ok, err := expr.Truth(ip.evalCtx(), e.Guard.Data)
	if err != nil || !ok {
		return false
	}
	for _, c := range e.Guard.Clocks {
		var vi, vj int64
		if c.I > 0 {
			vi = ip.St.Val[c.I-1]
		}
		if c.J > 0 {
			vj = ip.St.Val[c.J-1]
		}
		if !c.Bound.SatisfiedBy(vi-vj, ip.Scale) {
			return false
		}
	}
	return true
}

// Enabled enumerates the transitions enabled right now.
func (ip *Interp) Enabled() []EnabledTransition { return ip.appendEnabled(nil) }

// appendEnabled appends the transitions enabled right now to out. Guards
// and the committed-location rule are checked before a transition's
// EnabledTransition value is looked up, so disabled candidates cost no
// allocation and enabled ones only on their first occurrence.
func (ip *Interp) appendEnabled(out []EnabledTransition) []EnabledTransition {
	sys := ip.Sys
	committed := sys.IsCommitted(ip.St.Locs)
	isCommitted := func(e *model.Edge) bool { return sys.Procs[e.Proc].Locations[e.Src].Committed }
	for pi, p := range sys.Procs {
		for _, ei := range p.OutEdges(ip.St.Locs[pi]) {
			e := &p.Edges[ei]
			switch e.Dir {
			case model.NoSync:
				if committed && !isCommitted(e) || !ip.guardHolds(e) {
					continue
				}
				out = append(out, ip.transition(e, nil))
			case model.Emit:
				for qi, q := range sys.Procs {
					if qi == pi {
						continue
					}
					for _, fi := range q.OutEdges(ip.St.Locs[qi]) {
						f := &q.Edges[fi]
						if f.Dir != model.Receive || f.Chan != e.Chan {
							continue
						}
						if committed && !isCommitted(e) && !isCommitted(f) || !ip.guardHolds(e) || !ip.guardHolds(f) {
							continue
						}
						out = append(out, ip.transition(e, f))
					}
				}
			}
		}
	}
	return out
}

// transition returns the memoized EnabledTransition of the internal edge
// e (f nil) or of the synchronization of emitter e with receiver f.
func (ip *Interp) transition(e, f *model.Edge) EnabledTransition {
	if e.ID >= len(ip.transitions) {
		n := max(e.ID+1, ip.Sys.NumEdges())
		ip.transitions = append(ip.transitions, make([][]EnabledTransition, n-len(ip.transitions))...)
	}
	for _, t := range ip.transitions[e.ID] {
		if f == nil || t.Edges[1] == f {
			return t
		}
	}
	var t EnabledTransition
	if f == nil {
		t = EnabledTransition{Chan: -1, Kind: e.Kind, Edges: []*model.Edge{e}, Label: "tau(" + ip.Sys.EdgeLabel(e) + ")"}
	} else {
		ch := ip.Sys.Channels[e.Chan]
		t = EnabledTransition{Chan: e.Chan, Kind: ch.Kind, Edges: []*model.Edge{e, f}, Label: ch.Name}
	}
	ip.transitions[e.ID] = append(ip.transitions[e.ID], t)
	return t
}

// Take fires the transition, applying assignments and resets.
func (ip *Interp) Take(t EnabledTransition) error {
	ctx := ip.evalCtx()
	for _, e := range t.Edges {
		ip.St.Locs[e.Proc] = e.Dst
	}
	for _, e := range t.Edges {
		if err := expr.ApplyAll(ctx, e.Assigns); err != nil {
			return fmt.Errorf("tiots: %s: %w", ip.Sys.EdgeLabel(e), err)
		}
	}
	for _, e := range t.Edges {
		for _, r := range e.Resets {
			ip.St.Val[r.Clock-1] = int64(r.Value) * ip.Scale
		}
	}
	return nil
}

// MaxDelay computes the largest delay (in ticks) permitted by the location
// invariants and urgency, up to the given horizon. A negative horizon means
// "no horizon" (bounded only by invariants; returns horizon if unbounded).
func (ip *Interp) MaxDelay(horizon int64) int64 {
	sys := ip.Sys
	if sys.IsUrgent(ip.St.Locs) {
		return 0
	}
	best := horizon
	unbounded := horizon < 0
	for pi, li := range ip.St.Locs {
		for _, c := range sys.Procs[pi].Locations[li].Invariant {
			if c.I == 0 {
				continue // lower bounds do not limit delay
			}
			if c.J != 0 {
				continue // difference constraints are delay-invariant
			}
			// Val[c.I-1] + d ~ bound*scale
			lim := int64(c.Bound.Value())*ip.Scale - ip.St.Val[c.I-1]
			if c.Bound.Strict() {
				lim--
			}
			if lim < 0 {
				lim = 0
			}
			if unbounded || lim < best {
				best = lim
				unbounded = false
			}
		}
	}
	if unbounded {
		return horizon
	}
	return best
}

// Advance lets time pass by d ticks (caller must respect MaxDelay).
func (ip *Interp) Advance(d int64) {
	for i := range ip.St.Val {
		ip.St.Val[i] += d
	}
}

// --- deterministic implementations ---------------------------------------

// OutputDecision fixes when a plant output fires: after Offset ticks inside
// its enabled window the edge is taken (output urgency relative to the
// chosen instant).
type OutputDecision struct {
	// Enabled reports whether the implementation takes this output at all
	// (a quiescent implementation may drop outputs the spec allows, as long
	// as invariants still permit time to pass).
	Enabled bool
	// Offset is the delay in ticks from the moment the output's guard
	// becomes enabled until the implementation fires it.
	Offset int64
}

// DetPolicy resolves the specification's permitted nondeterminism into one
// deterministic, output-urgent, isolated-output implementation (§2.5 test
// hypotheses): for every uncontrollable edge, when (and whether) to fire.
type DetPolicy struct {
	// ByEdge maps global edge IDs of uncontrollable edges to decisions.
	// Missing entries default to {Enabled: true, Offset: 0}: fire as soon
	// as enabled.
	ByEdge map[int]OutputDecision
	// Priority breaks races between simultaneously scheduled outputs
	// deterministically: lower value fires first; defaults to edge ID.
	Priority map[int]int
	// Lazy makes outputs without an explicit ByEdge decision fire at the
	// CLOSE of their enabled window instead of its opening: the latest
	// conformant instant, bounded by the firing edges' clock-guard upper
	// bounds and the source-location invariants of the participating
	// processes. Outputs whose window nothing closes stay quiescent (also
	// conformant: time may diverge past them). This is the
	// lazy-but-conformant determinization campaign planning retries
	// `ungranted` goals against: an eager plant races past windows the
	// tester needs open (e.g. smartlight's L5, where a touch can only land
	// while the light out-waits the user's reaction time).
	Lazy bool
}

// decisionFor returns the decision for an edge set (keyed by the first
// uncontrollable participating edge); explicit reports whether a ByEdge
// entry fixed it (Lazy only applies to implicit decisions).
func (p *DetPolicy) decisionFor(t EnabledTransition) (dec OutputDecision, explicit bool) {
	if p == nil || p.ByEdge == nil {
		return OutputDecision{Enabled: true}, false
	}
	for _, e := range t.Edges {
		if d, ok := p.ByEdge[e.ID]; ok {
			return d, true
		}
	}
	return OutputDecision{Enabled: true}, false
}

// maxOffset returns the largest explicit Offset: the only constant window
// ages are compared against (implicit decisions fire at offset 0, lazy ones
// ignore ages).
func (p *DetPolicy) maxOffset() int64 {
	var m int64
	if p != nil {
		for _, d := range p.ByEdge {
			m = max(m, d.Offset)
		}
	}
	return m
}

// LazyPolicy returns the canonical lazy-but-conformant determinization:
// every output fires at the close of its enabled window.
func LazyPolicy() *DetPolicy { return &DetPolicy{Lazy: true} }

func (p *DetPolicy) priorityFor(t EnabledTransition) int {
	if p != nil && p.Priority != nil {
		for _, e := range t.Edges {
			if pr, ok := p.Priority[e.ID]; ok {
				return pr
			}
		}
	}
	return t.Edges[0].ID
}

// IUT is the tester-facing interface of a black-box implementation under
// virtual time (the adapter in Fig. 4). Offer delivers an input now;
// Advance runs time forward up to d ticks, stopping early at the first
// output, which is returned with its offset from now.
type IUT interface {
	Reset()
	Offer(chanIdx int) error
	Advance(d int64) (out *Output)
}

// Output is an observed plant output.
type Output struct {
	Chan  int
	After int64 // ticks after the Advance call started
}

// StateKeyer is implemented by deterministic IUTs whose whole future — every
// output and its timing, for any sequence of inputs and delays — is a
// function of a finite key of their current state. texec.Run uses it to
// stop a closed loop that repeats; an IUT without it (adapter.Client, any
// randomized host) is played until the step budget.
type StateKeyer interface {
	// AppendStateKey appends the key of the current state to b: two states
	// with equal keys behave identically from now on.
	AppendStateKey(b []byte) []byte
}

// ClockClamp returns the key threshold T = (m+r+1)·scale for valuations
// that are only compared against constants up to m and only reset by
// sys's transitions, r being sys's largest clock reset value (0 in almost
// every model). Under AppendClockKey's abstraction at T, two valuations
// with equal keys satisfy the same constraints now and after any common
// delay or reset: a clock at or above T stays above every constant it is
// compared with, and a reset clock's difference with it stays below -m.
func ClockClamp(sys *model.System, m int, scale int64) int64 {
	_, r := sys.ClockBounds()
	return int64(m+r+1) * scale
}

// SystemClamp is ClockClamp at sys's own largest constant: the threshold
// for an interpreter of sys, whose guards and invariants are all it
// compares clocks against.
func SystemClamp(sys *model.System, scale int64) int64 {
	m, r := sys.ClockBounds()
	return int64(m+r+1) * scale
}

// AppendClockKey appends the valuation abstracted at threshold t: each
// clock as min(v, t), then each pairwise difference clamped to [-t, t].
// Diagonal constraints see the differences, so they are part of the key
// even when both clocks are clamped.
func AppendClockKey(b []byte, val []int64, t int64) []byte {
	for _, v := range val {
		b = binary.LittleEndian.AppendUint64(b, uint64(min(v, t)))
	}
	for i := range val {
		for j := i + 1; j < len(val); j++ {
			b = binary.LittleEndian.AppendUint64(b, uint64(min(max(val[i]-val[j], -t), t)))
		}
	}
	return b
}

// SameClockKey reports whether AppendClockKey appends the same key for the
// equally long valuations a and b, without building either key. A
// difference is compared only when one of its clocks is clamped: below t
// the clocks are equal, and so is their difference.
func SameClockKey(a, b []int64, t int64) bool {
	for i := range a {
		if min(a[i], t) != min(b[i], t) {
			return false
		}
	}
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			if a[i] < t && a[j] < t {
				continue
			}
			if min(max(a[i]-a[j], -t), t) != min(max(b[i]-b[j], -t), t) {
				return false
			}
		}
	}
	return true
}

// Seeder is implemented by randomized IUTs that accept a per-run rng
// seed (campaign repeats derive one per run; the adapter forwards it
// over the wire). Deterministic implementations simply don't implement
// it.
type Seeder interface {
	Seed(seed int64)
}

// DetIUT interprets a network as a deterministic implementation driven by
// a DetPolicy. It satisfies IUT.
type DetIUT struct {
	ip     *Interp
	policy *DetPolicy
	// windows maps each enabled uncontrollable transition to how long its
	// guard has been enabled (to implement Offset); spareWindows is the
	// second, cleared map refreshWindows rebuilds it into, so neither is
	// reallocated per step.
	windows, spareWindows map[sigKey]int64
	// enabledBuf is the reused backing array of enabled().
	enabledBuf []EnabledTransition
	// clockClamp and ageClamp are AppendStateKey's thresholds, computed on
	// its first call (clockClamp 0 until then).
	clockClamp, ageClamp int64
}

var _ StateKeyer = (*DetIUT)(nil)

// NewDetIUT builds a deterministic implementation from a network (usually
// the plant part of a specification, or a mutated copy).
func NewDetIUT(sys *model.System, scale int64, policy *DetPolicy) *DetIUT {
	return &DetIUT{ip: NewInterp(sys, scale), policy: policy, windows: map[sigKey]int64{}, spareWindows: map[sigKey]int64{}}
}

// State exposes the current concrete state (tests only).
func (d *DetIUT) State() *State { return d.ip.St }

// Interp exposes the underlying interpreter (tests only).
func (d *DetIUT) Interp() *Interp { return d.ip }

// Reset implements IUT.
func (d *DetIUT) Reset() {
	d.ip.Reset()
	clear(d.windows)
}

// enabled enumerates the transitions enabled right now into the reused
// buffer; the result is valid until the next call.
func (d *DetIUT) enabled() []EnabledTransition {
	d.enabledBuf = d.ip.appendEnabled(d.enabledBuf[:0])
	return d.enabledBuf
}

// Offer implements IUT: deliver the input; per strong input-enabledness the
// input is ignored when no edge is enabled (common for real systems: the
// button does nothing).
func (d *DetIUT) Offer(chanIdx int) error {
	for _, t := range d.enabled() {
		if t.Chan == chanIdx && t.Kind == model.Controllable {
			if err := d.ip.Take(t); err != nil {
				return err
			}
			d.refreshWindows()
			return nil
		}
	}
	return nil // input ignored
}

// refreshWindows brings the enabled-since bookkeeping up to date with the
// current state: windows still open keep their age, newly opened ones
// start at zero and closed ones are dropped (so a window restarts when the
// state change that closed it is undone).
func (d *DetIUT) refreshWindows() {
	next := d.spareWindows
	clear(next)
	for _, t := range d.enabled() {
		if t.Kind == model.Uncontrollable {
			k := sigOf(t)
			next[k] = d.windows[k]
		}
	}
	d.windows, d.spareWindows = next, d.windows
}

// scheduledOutput returns the next output due within d ticks: the enabled
// uncontrollable transition whose remaining offset is smallest, ties going
// to the lower priority value and then to enumeration order.
func (d *DetIUT) scheduledOutput(dl int64) (EnabledTransition, int64, bool) {
	var (
		best       EnabledTransition
		bestDue    int64
		bestBranch int
		found      bool
	)
	for _, t := range d.enabled() {
		if t.Kind != model.Uncontrollable {
			continue
		}
		dec, explicit := d.policy.decisionFor(t)
		if !dec.Enabled {
			continue
		}
		var due int64
		if d.policy != nil && d.policy.Lazy && !explicit {
			// Fire at window close. due is relative to now (the clocks have
			// aged), so no window age applies; windows nothing closes stay
			// quiescent.
			close, bounded := d.windowCloseIn(t)
			if !bounded {
				continue
			}
			due = close
		} else {
			due = dec.Offset - d.windows[sigOf(t)]
		}
		if due < 0 {
			due = 0
		}
		branch := d.policy.priorityFor(t)
		if !found || due < bestDue || due == bestDue && branch < bestBranch {
			best, bestDue, bestBranch, found = t, due, branch, true
		}
	}
	if !found || bestDue > dl {
		return EnabledTransition{}, 0, false
	}
	return best, bestDue, true
}

// Advance implements IUT: move time forward by up to d ticks; if an output
// becomes due it fires (output urgency) and the call returns early.
//
// Real time always advances: the implementation does NOT stop the clock at
// specification invariants. A conformant policy schedules its outputs
// inside the allowed windows, so deadlines are met naturally; a faulty
// (quiescent or lazy) policy simply lets the deadline slip by, which the
// tioco monitor then observes as a delay violation.
func (d *DetIUT) Advance(dl int64) *Output {
	elapsed := int64(0)
	for guard := 0; ; guard++ {
		if guard > 1<<14 {
			return nil // zeno defense: a broken model is looping in zero time
		}
		remaining := dl - elapsed
		// An output due within the remaining budget?
		if t, due, ok := d.scheduledOutput(remaining); ok {
			d.stepTime(due)
			elapsed += due
			if err := d.ip.Take(t); err != nil {
				return nil
			}
			d.refreshWindows()
			return &Output{Chan: t.Chan, After: elapsed}
		}
		if remaining <= 0 {
			return nil
		}
		// Advance to the next interesting instant: the full budget or the
		// exact tick at which the next output window opens.
		step := remaining
		if open, ok := d.nextWindowOpening(remaining); ok && open > 0 && open < step {
			step = open
		}
		d.stepTime(step)
		elapsed += step
	}
}

// windowCloseIn computes the remaining ticks until the transition's firing
// window closes: the minimum over the upper bounds of the firing edges'
// clock guards and of the participating processes' source-location
// invariants. bounded is false when nothing closes the window (the lazy
// policy then never fires the output). Strict bounds close one tick early —
// the last conformant instant is strictly inside them.
func (d *DetIUT) windowCloseIn(t EnabledTransition) (close int64, bounded bool) {
	upper := func(cs []model.ClockConstraint) {
		for _, c := range cs {
			if c.I == 0 || c.J != 0 {
				continue // lower bounds open windows; differences are delay-invariant
			}
			lim := int64(c.Bound.Value())*d.ip.Scale - d.ip.St.Val[c.I-1]
			if c.Bound.Strict() {
				lim--
			}
			if lim < 0 {
				lim = 0
			}
			if !bounded || lim < close {
				close, bounded = lim, true
			}
		}
	}
	for _, e := range t.Edges {
		upper(e.Guard.Clocks)
		upper(d.ip.Sys.Procs[e.Proc].Locations[e.Src].Invariant)
	}
	return close, bounded
}

// nextWindowOpening computes the smallest positive delay (up to limit) at
// which a currently-disabled uncontrollable transition's clock guard
// becomes satisfied. Data guards are delay-invariant and need no analysis.
func (d *DetIUT) nextWindowOpening(limit int64) (int64, bool) {
	sys := d.ip.Sys
	best := int64(-1)
	for pi, p := range sys.Procs {
		for _, ei := range p.OutEdges(d.ip.St.Locs[pi]) {
			e := &p.Edges[ei]
			if e.Kind != model.Uncontrollable {
				continue
			}
			if open, ok := d.guardOpensIn(e.Guard.Clocks); ok && open > 0 && open <= limit {
				if best < 0 || open < best {
					best = open
				}
			}
		}
	}
	return best, best >= 0
}

// guardOpensIn returns the earliest delay making the clock conjunction
// true, or ok=false when delay cannot help.
func (d *DetIUT) guardOpensIn(cs []model.ClockConstraint) (int64, bool) {
	var lo int64
	for _, c := range cs {
		var vi, vj int64
		if c.I > 0 {
			vi = d.ip.St.Val[c.I-1]
		}
		if c.J > 0 {
			vj = d.ip.St.Val[c.J-1]
		}
		if c.I > 0 && c.J > 0 {
			// Delay-invariant: must already hold.
			if !c.Bound.SatisfiedBy(vi-vj, d.ip.Scale) {
				return 0, false
			}
			continue
		}
		if c.I == 0 {
			// Lower bound on xJ: -(vj + t) ~ v  =>  t ≳ -v - vj.
			need := -int64(c.Bound.Value())*d.ip.Scale - vj
			if c.Bound.Strict() {
				need++
			}
			if need > lo {
				lo = need
			}
		}
	}
	// Upper bounds must still hold at lo.
	for _, c := range cs {
		if c.I > 0 && c.J == 0 {
			vi := d.ip.St.Val[c.I-1] + lo
			if !c.Bound.SatisfiedBy(vi, d.ip.Scale) {
				return 0, false
			}
		}
	}
	return lo, true
}

// AppendStateKey implements StateKeyer. The key holds the locations, the
// variables, the clocks abstracted at the system's own threshold (a mutant
// may widen a constant, so the specification's would not do) and the
// window ages clamped at the policy's largest explicit Offset. Under the
// default and lazy policies that clamp is 0, ages never matter and the
// windows drop out of the key. Otherwise every enabled output window keys
// its clamped age, or -1 before its first refresh (it then starts aging
// one step later than a present window of age 0).
func (d *DetIUT) AppendStateKey(b []byte) []byte {
	if d.clockClamp == 0 {
		d.clockClamp = SystemClamp(d.ip.Sys, d.ip.Scale)
		d.ageClamp = d.policy.maxOffset()
	}
	st := d.ip.St
	for _, l := range st.Locs {
		b = binary.LittleEndian.AppendUint64(b, uint64(l))
	}
	for _, v := range st.Vars {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	b = AppendClockKey(b, st.Val, d.clockClamp)
	if d.ageClamp == 0 {
		return b
	}
	present := 0
	for _, t := range d.enabled() {
		if t.Kind != model.Uncontrollable {
			continue
		}
		age, ok := d.windows[sigOf(t)]
		if ok {
			present++
			age = min(age, d.ageClamp)
		} else {
			age = -1
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(age))
	}
	if present < len(d.windows) {
		// A failed Take left windows of a state no longer current; they
		// still age, so key the whole table. Map order varies between
		// calls, which can only hide a repeat, never invent one.
		for k, age := range d.windows {
			for _, v := range [...]int64{int64(k.ch), int64(k.e0), int64(k.e1), min(age, d.ageClamp)} {
				b = binary.LittleEndian.AppendUint64(b, uint64(v))
			}
		}
	}
	return b
}

// stepTime advances the interpreter clock and the enabled-window ages.
func (d *DetIUT) stepTime(dt int64) {
	if dt == 0 {
		return
	}
	d.ip.Advance(dt)
	for k := range d.windows {
		d.windows[k] += dt
	}
	// Newly opened windows start aging now; windows that closed while
	// waiting reset their age.
	d.refreshWindows()
}
