// Package tioco implements the timed input/output conformance relation of
// the paper (Def. 5): an implementation conforms to a specification iff
// after every specification trace, every implementation output (or delay)
// is also allowed by the specification:
//
//	i tioco s  iff  ∀σ ∈ TTr(s): Out(i After σ) ⊆ Out(s After σ)
//
// The Monitor tracks the set of plant states the specification allows after
// the observed timed trace and decides, online, whether each observed
// output and delay is permitted — exactly the `Out(s0 After σ)` oracle of
// Algorithm 3.1 in the paper.
//
// The monitor views the plant processes of the model as an open system:
// inputs are Receive edges on controllable channels, outputs are Emit edges
// on uncontrollable channels; the environment processes of the closed model
// are ignored because the tester takes their place during test execution.
//
// Concurrency contract: a Monitor is stateful and single-caller (one per
// test run); the specification it reads is shared and immutable, so
// concurrent runs each build their own Monitor over one specification.
package tioco

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"tigatest/internal/expr"
	"tigatest/internal/model"
	"tigatest/internal/tiots"
)

// Violation describes a conformance violation.
type Violation struct {
	Kind   string // "output", "delay", "input"
	Detail string
}

func (v *Violation) Error() string { return "tioco: " + v.Kind + ": " + v.Detail }

// state is one hypothesis about the plant's current semantic state.
type state struct {
	locs []int   // locations of plant processes (indexed by plant slot)
	vars []int32 // full variable environment (plant assignments only)
	val  []int64 // all clocks, ticks

	// prev and kept are commit's scratch marks: s was a hypothesis before
	// the step, s stays one after it. Both are false between steps.
	prev, kept bool
}

// appendKey appends s's identity, its locations, variables and clock
// values, as fixed-width integers. Every hypothesis of one monitor has
// slices of the same lengths, so equal keys mean equal states. A positive
// clamp abstracts the clocks at that threshold (tiots.AppendClockKey);
// equal keys then mean states that behave alike from now on.
func (s *state) appendKey(b []byte, clamp int64) []byte {
	for _, l := range s.locs {
		b = binary.LittleEndian.AppendUint64(b, uint64(l))
	}
	for _, v := range s.vars {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	if clamp > 0 {
		return tiots.AppendClockKey(b, s.val, clamp)
	}
	for _, v := range s.val {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// event is one observed trace step: an action on ch (input or output), or
// a delay of d ticks when ch is negative.
type event struct {
	d     int64
	ch    int32
	input bool
}

// Monitor tracks Out(s0 After σ) for the plant part of a specification.
//
// The monitor owns its hypothesis states: every state is referenced from
// exactly one of states, spare (during a step) or free, never twice, so
// Delay may advance survivors in place and Input/Output recycle the states
// a step leaves behind.
type Monitor struct {
	sys    *model.System
	plant  []int // process indices of the plant (IUT) in the closed model
	scale  int64
	states []*state
	spare  []*state // reused backing array for the next hypothesis set
	free   []*state // recycled states for fire
	ctx    expr.Ctx // reused expression context
	trace  []event  // observed trace, rendered by Trace
	// seen and key are commit's reused duplicate filter: the keys of the
	// hypotheses kept so far, and the key being built.
	seen map[string]bool
	key  []byte
	// clamp is AppendStateKey's clock threshold, computed on its first
	// call (0 until then).
	clamp int64
}

// NewMonitor builds a monitor for the plant processes of the specification.
func NewMonitor(sys *model.System, plantProcs []int, scale int64) (*Monitor, error) {
	if len(plantProcs) == 0 {
		return nil, fmt.Errorf("tioco: no plant processes given")
	}
	for _, pi := range plantProcs {
		if pi < 0 || pi >= len(sys.Procs) {
			return nil, fmt.Errorf("tioco: plant process %d out of range", pi)
		}
		for _, e := range sys.Procs[pi].Edges {
			if e.Dir == model.NoSync {
				return nil, fmt.Errorf("tioco: plant process %s has internal edges; the monitor requires observable actions", sys.Procs[pi].Name)
			}
		}
	}
	m := &Monitor{sys: sys, plant: plantProcs, scale: scale}
	m.Reset()
	return m, nil
}

// Reset restores the monitor to the initial specification state.
func (m *Monitor) Reset() {
	init := &state{
		locs: make([]int, len(m.plant)),
		vars: m.sys.Vars.InitialEnv(),
		val:  make([]int64, m.sys.NumClocks()-1),
	}
	for k, pi := range m.plant {
		init.locs[k] = m.sys.Procs[pi].Init
	}
	m.states = []*state{init}
	m.trace = m.trace[:0]
}

// StateCount returns the number of live hypotheses (1 for deterministic
// specifications).
func (m *Monitor) StateCount() int { return len(m.states) }

// Trace returns the observed trace rendered for diagnostics: delays as
// model time units with three decimals, inputs as name? and outputs as
// name!, joined by " · ".
func (m *Monitor) Trace() string {
	var b strings.Builder
	for i, ev := range m.trace {
		if i > 0 {
			b.WriteString(" · ")
		}
		switch {
		case ev.ch < 0:
			fmt.Fprintf(&b, "%d.%03d", ev.d/m.scale, (ev.d%m.scale)*1000/m.scale)
		case ev.input:
			b.WriteString(m.sys.Channels[ev.ch].Name)
			b.WriteString("?")
		default:
			b.WriteString(m.sys.Channels[ev.ch].Name)
			b.WriteString("!")
		}
	}
	return b.String()
}

// evalCtx returns the monitor's expression context bound to s's variables.
func (m *Monitor) evalCtx(s *state) *expr.Ctx {
	m.ctx.Tbl, m.ctx.Env = m.sys.Vars, s.vars
	return &m.ctx
}

// guardHolds evaluates an edge's guard in a hypothesis state.
func (m *Monitor) guardHolds(e *model.Edge, s *state) bool {
	ok, err := expr.Truth(m.evalCtx(s), e.Guard.Data)
	if err != nil || !ok {
		return false
	}
	for _, c := range e.Guard.Clocks {
		var vi, vj int64
		if c.I > 0 {
			vi = s.val[c.I-1]
		}
		if c.J > 0 {
			vj = s.val[c.J-1]
		}
		if !c.Bound.SatisfiedBy(vi-vj, m.scale) {
			return false
		}
	}
	return true
}

// maxDelay computes how long the hypothesis may let time pass (plant
// invariants only).
func (m *Monitor) maxDelay(s *state, horizon int64) int64 {
	best := horizon
	for k, pi := range m.plant {
		loc := &m.sys.Procs[pi].Locations[s.locs[k]]
		if loc.Urgent || loc.Committed {
			return 0
		}
		for _, c := range loc.Invariant {
			if c.I == 0 || c.J != 0 {
				continue
			}
			lim := int64(c.Bound.Value())*m.scale - s.val[c.I-1]
			if c.Bound.Strict() {
				lim--
			}
			if lim < 0 {
				lim = 0
			}
			if lim < best {
				best = lim
			}
		}
	}
	return best
}

// fire takes the plant edge in the hypothesis, into a new (possibly
// recycled) state; s is left unchanged.
func (m *Monitor) fire(e *model.Edge, plantSlot int, s *state) (*state, error) {
	var n *state
	if k := len(m.free); k > 0 {
		n, m.free = m.free[k-1], m.free[:k-1]
		n.locs = append(n.locs[:0], s.locs...)
		n.vars = append(n.vars[:0], s.vars...)
		n.val = append(n.val[:0], s.val...)
	} else {
		n = &state{locs: slices.Clone(s.locs), vars: slices.Clone(s.vars), val: slices.Clone(s.val)}
	}
	n.locs[plantSlot] = e.Dst
	if err := expr.ApplyAll(m.evalCtx(n), e.Assigns); err != nil {
		return nil, err
	}
	for _, r := range e.Resets {
		n.val[r.Clock-1] = int64(r.Value) * m.scale
	}
	return n, nil
}

// Delay records that d ticks passed with no observable action. It fails
// when no specification state allows the plant to stay silent that long
// (e.g. an invariant forces an output earlier). Surviving hypotheses age
// in place; on a violation the hypotheses are left untouched.
func (m *Monitor) Delay(d int64) error {
	m.trace = append(m.trace, event{ch: -1, d: d})
	next := m.states[:0]
	for _, s := range m.states {
		if m.maxDelay(s, d) < d {
			continue // this hypothesis forces an action before d
		}
		for i := range s.val {
			s.val[i] += d
		}
		next = append(next, s)
	}
	if len(next) == 0 {
		return &Violation{Kind: "delay", Detail: fmt.Sprintf("implementation stayed quiet for %d ticks but the specification forces an output earlier (after %s)", d, m.Trace())}
	}
	m.states = next
	return nil
}

// Input records that the tester offered an input on the channel. The spec
// is assumed strongly input-enabled; hypotheses without an enabled input
// edge keep their state (the input is ignored there), matching the common
// "button does nothing" semantics.
func (m *Monitor) Input(chanIdx int) error {
	if chanIdx < 0 || chanIdx >= len(m.sys.Channels) || m.sys.Channels[chanIdx].Kind != model.Controllable {
		return fmt.Errorf("tioco: channel %d is not an input channel", chanIdx)
	}
	next := m.spare[:0]
	for _, s := range m.states {
		fired := false
		for k, pi := range m.plant {
			p := m.sys.Procs[pi]
			for _, ei := range p.OutEdges(s.locs[k]) {
				e := &p.Edges[ei]
				if e.Dir != model.Receive || e.Chan != chanIdx {
					continue
				}
				if !m.guardHolds(e, s) {
					continue
				}
				n, err := m.fire(e, k, s)
				if err != nil {
					return err
				}
				next = append(next, n)
				fired = true
			}
		}
		if !fired {
			next = append(next, s) // input ignored in this hypothesis
		}
	}
	m.trace = append(m.trace, event{ch: int32(chanIdx), input: true})
	m.commit(next)
	return nil
}

// Output records an observed plant output; it returns a Violation when the
// specification does not allow the output here (the Fail case of
// Algorithm 3.1).
func (m *Monitor) Output(chanIdx int) error {
	if chanIdx < 0 || chanIdx >= len(m.sys.Channels) || m.sys.Channels[chanIdx].Kind != model.Uncontrollable {
		return &Violation{Kind: "output", Detail: fmt.Sprintf("observed action on non-output channel %d", chanIdx)}
	}
	next := m.spare[:0]
	for _, s := range m.states {
		for k, pi := range m.plant {
			p := m.sys.Procs[pi]
			for _, ei := range p.OutEdges(s.locs[k]) {
				e := &p.Edges[ei]
				if e.Dir != model.Emit || e.Chan != chanIdx {
					continue
				}
				if !m.guardHolds(e, s) {
					continue
				}
				n, err := m.fire(e, k, s)
				if err != nil {
					return err
				}
				next = append(next, n)
			}
		}
	}
	m.trace = append(m.trace, event{ch: int32(chanIdx)})
	if len(next) == 0 {
		return &Violation{Kind: "output", Detail: fmt.Sprintf("output %s! not allowed by the specification (after %s; allowed: %s)", m.sys.Channels[chanIdx].Name, m.Trace(), m.AllowedOutputs())}
	}
	m.commit(next)
	return nil
}

// commit installs next — built in the spare array — as the hypothesis set.
// Duplicates are dropped, keeping first occurrences in order, and every
// state not carried over (previous hypotheses that fired into a successor,
// dropped duplicates) is recycled. Each step costs time linear in the
// number of hypotheses.
func (m *Monitor) commit(next []*state) {
	for _, s := range m.states {
		s.prev = true
	}
	if len(next) > 1 {
		if m.seen == nil {
			m.seen = map[string]bool{}
		}
		clear(m.seen)
		kept := next[:0]
		for _, s := range next {
			m.key = s.appendKey(m.key[:0], 0)
			if m.seen[string(m.key)] {
				if !s.prev {
					m.free = append(m.free, s) // a fresh successor; previous states are recycled below
				}
				continue
			}
			m.seen[string(m.key)] = true
			kept = append(kept, s)
		}
		next = kept
	}
	for _, s := range next {
		s.kept = true
	}
	for _, s := range m.states {
		if !s.kept {
			m.free = append(m.free, s)
		}
		s.prev = false
	}
	for _, s := range next {
		s.kept = false
	}
	m.spare, m.states = m.states[:0], next
}

// AppendStateKey appends the hypothesis list, in order, with clocks
// abstracted above the specification's largest constant: two monitors with
// equal keys give the same verdict on every continuation of the trace.
// Only the rendered trace of a violation message is left out.
func (m *Monitor) AppendStateKey(b []byte) []byte {
	if m.clamp == 0 {
		m.clamp = tiots.SystemClamp(m.sys, m.scale)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(m.states)))
	for _, s := range m.states {
		b = s.appendKey(b, m.clamp)
	}
	return b
}

// AllowedOutputs lists the outputs the specification currently allows
// (diagnostics; part of Out(s After σ)).
func (m *Monitor) AllowedOutputs() string {
	seen := map[string]bool{}
	for _, s := range m.states {
		for k, pi := range m.plant {
			p := m.sys.Procs[pi]
			for _, ei := range p.OutEdges(s.locs[k]) {
				e := &p.Edges[ei]
				if e.Dir == model.Emit && m.guardHolds(e, s) {
					seen[m.sys.Channels[e.Chan].Name+"!"] = true
				}
			}
		}
	}
	if len(seen) == 0 {
		return "none"
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
