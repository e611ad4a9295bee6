// Package symbolic implements the symbolic (zone-graph) semantics of TIOGA
// networks: states are (location vector, variable vector, zone) triples
// where the zone is closed under delay within the location invariant, and
// successors follow the standard zone-automaton construction with
// max-constant extrapolation.
//
// Key types: State (hash-interned via DiscreteHash/HashKey/EqualTo, and
// liftable into a ghost overlay with WithOverlayVar), Transition (an
// internal edge or a synchronized emitter/receiver pair) and Explorer
// (Initial, AppendSuccessors, and the game fixpoint's PredThroughEdge).
//
// An Explorer interns its transitions: it owns one immutable *Transition
// per internal edge and per (emitter edge, receiver edge) pair, built on
// its first Candidates call, and every successor it fires carries that
// shared pointer. A zone graph therefore stores a successor as a pointer
// and a target, and two transitions of one explorer are the same
// transition exactly when their pointers are equal.
//
// Successors are built in a caller-owned Scratch: AppendSuccessors writes
// every successor's location and variable vectors and its State there and
// overwrites them on the next call with the same Scratch, so a caller that
// keeps a successor copies what it keeps. Only the zone is fresh and owned
// by the caller. Fire and Successors use a fresh Scratch per call, so
// their results are the caller's for good.
//
// Concurrency contract: an Explorer is safe for concurrent use by any
// number of solver workers (the transition table is built once, under a
// sync.Once); interned States and Transitions are read-only.
// AppendSuccessors writes only into the caller's buffer and Scratch, so
// per-worker buffers make exploration embarrassingly parallel.
package symbolic

import (
	"fmt"
	"slices"
	"sync"

	"tigatest/internal/dbm"
	"tigatest/internal/expr"
	"tigatest/internal/model"
)

// State is a symbolic state of the network.
type State struct {
	Locs []int
	Vars []int32
	Zone *dbm.DBM
}

// FNV-1a parameters, matching the zone hash in package dbm.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// DiscreteHash returns a 64-bit hash of the discrete part (locations and
// variables). The solver uses it to shard its node store, so states that
// differ only in their zone land in the same shard.
func (s *State) DiscreteHash() uint64 {
	h := fnvOffset64
	for _, l := range s.Locs {
		h = (h ^ uint64(uint32(l))) * fnvPrime64
	}
	h = (h ^ 0xff) * fnvPrime64
	for _, v := range s.Vars {
		h = (h ^ uint64(uint32(v))) * fnvPrime64
	}
	return h
}

// HashKey returns a 64-bit hash of the full symbolic state (discrete part
// and zone). Equal states hash equal; the solver resolves the rare
// collisions with EqualTo, so no string keys are ever materialized.
func (s *State) HashKey() uint64 {
	return (s.DiscreteHash() ^ s.Zone.Hash()) * fnvPrime64
}

// WithOverlayVar writes into dst a copy of the state whose variable vector
// carries one appended overlay variable with the given value, and returns
// dst. The caller supplies both buffers: dst, and vars with room for
// len(s.Vars)+1 values, which becomes dst.Vars — so lifting a whole graph
// can draw them from arenas instead of allocating per state. The location
// vector and zone are shared with the receiver, not copied — overlay states
// are read-only views, like every interned state. This is the substrate of
// the ghost-overlay construction in package game: a state of a
// ghost-instrumented clone is exactly a core state plus the appended 0/1
// watch variable, so successor buffers explored on the core can be lifted
// into the clone's state space without refiring a single edge.
func (s *State) WithOverlayVar(v int32, dst *State, vars []int32) *State {
	k := len(s.Vars)
	vars = vars[: k+1 : k+1]
	copy(vars, s.Vars)
	vars[k] = v
	*dst = State{Locs: s.Locs, Vars: vars, Zone: s.Zone}
	return dst
}

// EqualTo reports full symbolic-state equality (discrete part and zone).
func (s *State) EqualTo(o *State) bool {
	return s.DiscreteEqual(o) && s.Zone.Equals(o.Zone)
}

// DiscreteEqual reports whether s and o have equal locations and variables.
func (s *State) DiscreteEqual(o *State) bool {
	return slices.Equal(s.Locs, o.Locs) && slices.Equal(s.Vars, o.Vars)
}

// String renders the state for diagnostics.
func (s *State) String() string {
	return fmt.Sprintf("locs=%v vars=%v zone=%s", s.Locs, s.Vars, s.Zone)
}

// Transition is one discrete step of the network: either a single internal
// edge or a synchronized emitter/receiver pair. The explorer hands out one
// shared *Transition per step, so a Transition must never be modified.
type Transition struct {
	Kind  model.Kind
	Chan  int // channel index, or -1 for internal moves
	Edges []*model.Edge
	Label string
}

// Succ is a successor state reached by a transition; Trans is the
// explorer's shared transition.
type Succ struct {
	Trans *Transition
	State *State
}

// Explorer computes initial states and successors for a system. Its
// exported fields are set before first use; after that an Explorer is safe
// for concurrent use by multiple solver workers.
type Explorer struct {
	Sys *model.System
	// Max holds per-clock extrapolation constants (from the system plus the
	// test purpose). Nil disables extrapolation (ablation switch; the zone
	// graph may then be infinite).
	Max []int

	// The transition table, built by the first Candidates call: explorers
	// that only compute predecessors (the per-purpose solvers of a batch)
	// never pay for it. Edges are numbered flat, process by process, from
	// edgeBase[pi].
	tableOnce sync.Once
	edgeBase  []int
	tau       []*Transition   // flat edge -> its internal transition (nil for synchronized edges)
	recvSlot  []int           // flat receiver edge -> its index among its channel's receivers
	pairs     [][]*Transition // flat emitter edge -> the pair with each receiver of its channel (nil within one process)
}

// NewExplorer builds an explorer with extrapolation constants covering the
// system and the given extra constraints (e.g. the formula's clock atoms).
func NewExplorer(sys *model.System, extra []model.ClockConstraint) *Explorer {
	return &Explorer{Sys: sys, Max: sys.MaxConstants(extra)}
}

// buildTable interns every transition of the system: one per internal edge
// and one per (emitter, receiver) pair of edges in distinct processes on a
// shared channel. Transitions and their edge lists come from one backing
// array each.
func (ex *Explorer) buildTable() {
	sys := ex.Sys
	ex.edgeBase = make([]int, len(sys.Procs)+1)
	for pi, p := range sys.Procs {
		ex.edgeBase[pi+1] = ex.edgeBase[pi] + len(p.Edges)
	}
	flat := ex.edgeBase[len(sys.Procs)]
	ex.recvSlot = make([]int, flat)
	recvs := make([][]*model.Edge, len(sys.Channels))
	emits := make([]int, len(sys.Channels))
	ntau := 0
	for pi, p := range sys.Procs {
		for ei := range p.Edges {
			switch e := &p.Edges[ei]; e.Dir {
			case model.NoSync:
				ntau++
			case model.Emit:
				emits[e.Chan]++
			case model.Receive:
				ex.recvSlot[ex.edgeBase[pi]+ei] = len(recvs[e.Chan])
				recvs[e.Chan] = append(recvs[e.Chan], e)
			}
		}
	}
	nslot := 0
	for c := range recvs {
		nslot += emits[c] * len(recvs[c])
	}

	// Room for a pair in every slot; slots within one process stay nil.
	trans := make([]Transition, 0, ntau+nslot)
	edges := make([]*model.Edge, 0, ntau+2*nslot)
	slots := make([]*Transition, nslot)
	intern := func(t Transition, es ...*model.Edge) *Transition {
		k := len(edges)
		edges = append(edges, es...)
		t.Edges = edges[k:len(edges):len(edges)]
		trans = append(trans, t)
		return &trans[len(trans)-1]
	}
	ex.tau = make([]*Transition, flat)
	ex.pairs = make([][]*Transition, flat)
	for pi, p := range sys.Procs {
		for ei := range p.Edges {
			e := &p.Edges[ei]
			i := ex.edgeBase[pi] + ei
			switch e.Dir {
			case model.NoSync:
				ex.tau[i] = intern(Transition{Kind: e.Kind, Chan: -1, Label: fmt.Sprintf("tau(%s)", sys.EdgeLabel(e))}, e)
			case model.Emit:
				ch := &sys.Channels[e.Chan]
				row := slots[:len(recvs[e.Chan]):len(recvs[e.Chan])]
				slots = slots[len(row):]
				for j, f := range recvs[e.Chan] {
					if f.Proc != pi {
						row[j] = intern(Transition{Kind: ch.Kind, Chan: e.Chan, Label: ch.Name}, e, f)
					}
				}
				ex.pairs[i] = row
			}
		}
	}
}

// Initial returns the initial symbolic state: all processes in their
// initial locations, variables at their initial values, zone = the delay
// closure of the origin.
func (ex *Explorer) Initial() (*State, error) {
	sys := ex.Sys
	locs := sys.InitialLocations()
	vars := sys.Vars.InitialEnv()
	z := dbm.Zero(sys.NumClocks())
	z = sys.ApplyInvariant(z, locs)
	if z == nil {
		return nil, fmt.Errorf("symbolic: initial state violates invariant")
	}
	z = ex.delayClose(z, locs)
	if z == nil {
		return nil, fmt.Errorf("symbolic: initial state has empty zone")
	}
	return &State{Locs: locs, Vars: vars, Zone: z}, nil
}

// delayClose closes the zone under delay within the invariant unless the
// location vector is urgent, then extrapolates.
func (ex *Explorer) delayClose(z *dbm.DBM, locs []int) *dbm.DBM {
	if z == nil {
		return nil
	}
	if !ex.Sys.IsUrgent(locs) {
		z = ex.Sys.ApplyInvariant(z.Up(), locs)
		if z == nil {
			return nil
		}
	}
	if ex.Max != nil {
		z = z.Extrapolate(ex.Max)
	}
	return z
}

// applyInvariantInPlace conjoins every location invariant into z in place,
// reporting whether z stays non-empty.
func (ex *Explorer) applyInvariantInPlace(z *dbm.DBM, locs []int) bool {
	for pi, li := range locs {
		for _, c := range ex.Sys.Procs[pi].Locations[li].Invariant {
			if !z.ConstrainInPlace(c.I, c.J, c.Bound) {
				return false
			}
		}
	}
	return true
}

// Successors enumerates all discrete successors of s. The result is the
// caller's: it is built in a Scratch of its own.
func (ex *Explorer) Successors(s *State) ([]Succ, error) {
	return ex.AppendSuccessors(nil, s, new(Scratch))
}

// AppendSuccessors appends all discrete successors of s to dst and returns
// the extended slice, so callers exploring many states can reuse one
// buffer instead of allocating per state. The successors' States and their
// location and variable vectors live in sc and stay valid until sc is
// passed to AppendSuccessors again; their zones are fresh and the caller's.
func (ex *Explorer) AppendSuccessors(dst []Succ, s *State, sc *Scratch) ([]Succ, error) {
	sc.states, sc.locs, sc.vars = sc.states[:0], sc.locs[:0], sc.vars[:0]
	out := dst
	err := ex.Candidates(s, func(t *Transition) error {
		succ, ok, err := ex.fire(s, t, sc)
		if ok {
			out = append(out, succ)
		}
		return err
	})
	sc.guard, sc.update = expr.Ctx{}, expr.Ctx{} // pin no caller state
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Candidates invokes fn for every discrete-transition candidate of s —
// internal edges, then synchronized emitter/receiver pairs — in exactly
// the order AppendSuccessors fires them, with the committed-location
// filter applied but the guards not yet evaluated. Each candidate is the
// explorer's shared, immutable transition, so fn may keep it. The first
// call builds the transition table. The incremental delta replay (package
// game) walks candidates to decide, per transition, whether the base
// graph's successor can be reused or the mutant must fire it.
func (ex *Explorer) Candidates(s *State, fn func(t *Transition) error) error {
	ex.tableOnce.Do(ex.buildTable)
	sys := ex.Sys
	committed := sys.IsCommitted(s.Locs)

	// Internal edges.
	for pi, p := range sys.Procs {
		tau := ex.tau[ex.edgeBase[pi]:ex.edgeBase[pi+1]]
		for _, ei := range p.OutEdges(s.Locs[pi]) {
			t := tau[ei]
			if t == nil {
				continue // synchronized edge
			}
			if committed && !p.Locations[p.Edges[ei].Src].Committed {
				continue
			}
			if err := fn(t); err != nil {
				return err
			}
		}
	}

	// Synchronized pairs: emitter in one process, receiver in another.
	for pi, p := range sys.Procs {
		for _, ei := range p.OutEdges(s.Locs[pi]) {
			e := &p.Edges[ei]
			if e.Dir != model.Emit {
				continue
			}
			pairs := ex.pairs[ex.edgeBase[pi]+ei]
			for qi, q := range sys.Procs {
				if qi == pi {
					continue
				}
				for _, fi := range q.OutEdges(s.Locs[qi]) {
					f := &q.Edges[fi]
					if f.Dir != model.Receive || f.Chan != e.Chan {
						continue
					}
					if committed && !p.Locations[e.Src].Committed && !q.Locations[f.Src].Committed {
						continue
					}
					if err := fn(pairs[ex.recvSlot[ex.edgeBase[qi]+fi]]); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// Fire attempts candidate t from s; a nil Succ means the transition is
// disabled. The successor carries t itself and is the caller's.
func (ex *Explorer) Fire(s *State, t *Transition) (*Succ, error) {
	succ, ok, err := ex.fire(s, t, new(Scratch))
	if !ok {
		return nil, err
	}
	return &succ, nil
}

// Scratch is the caller-owned memory fire builds successors in: their
// States and location and variable vectors, carved from three buffers that
// AppendSuccessors empties on entry, plus the two evaluation contexts
// (guards read the source environment, updates write the successor's).
// Expressions evaluate through an interface, so a context always escapes
// to the heap; keeping both in the Scratch makes a state whose candidates
// are all disabled cost no allocation. A buffer that grows moves on to a
// new array and leaves the successors already built in the old one, so
// every successor of one call stays valid. The zero value is ready to use;
// a Scratch is not safe for concurrent use.
type Scratch struct {
	states        []State
	locs          []int
	vars          []int32
	guard, update expr.Ctx
}

// fire attempts to take the transition from s; ok is false when it is
// disabled (or on error). An enabled successor's State, Locs and Vars are
// appended to sc; a disabled one leaves sc's buffers as they were.
func (ex *Explorer) fire(s *State, t *Transition, sc *Scratch) (Succ, bool, error) {
	sys := ex.Sys

	// Data guards (conjunction over participating edges).
	sc.guard = expr.Ctx{Tbl: sys.Vars, Env: s.Vars}
	for _, e := range t.Edges {
		ok, err := expr.Truth(&sc.guard, e.Guard.Data)
		if err != nil {
			return Succ{}, false, fmt.Errorf("symbolic: guard of %s: %w", sys.EdgeLabel(e), err)
		}
		if !ok {
			return Succ{}, false, nil
		}
	}

	// Clock guards, applied to one owned scratch zone that becomes the
	// successor's zone; every further step mutates it in place.
	z := s.Zone.Clone()
	for _, e := range t.Edges {
		for _, c := range e.Guard.Clocks {
			if !z.ConstrainInPlace(c.I, c.J, c.Bound) {
				z.Release()
				return Succ{}, false, nil
			}
		}
	}

	// Discrete update: locations, then assignments (emitter before receiver,
	// matching UPPAAL's order), written to the end of sc's buffers; a
	// disabled successor truncates them back.
	nl, nv := len(sc.locs), len(sc.vars)
	fail := func(err error) (Succ, bool, error) {
		z.Release()
		sc.locs, sc.vars = sc.locs[:nl], sc.vars[:nv]
		return Succ{}, false, err
	}
	sc.locs = append(sc.locs, s.Locs...)
	locs := sc.locs[nl:len(sc.locs):len(sc.locs)]
	for _, e := range t.Edges {
		locs[e.Proc] = e.Dst
	}
	sc.vars = append(sc.vars, s.Vars...)
	vars := sc.vars[nv:len(sc.vars):len(sc.vars)]
	sc.update = expr.Ctx{Tbl: sys.Vars, Env: vars}
	for _, e := range t.Edges {
		if err := expr.ApplyAll(&sc.update, e.Assigns); err != nil {
			return fail(fmt.Errorf("symbolic: update of %s: %w", sys.EdgeLabel(e), err))
		}
	}

	// Clock resets.
	for _, e := range t.Edges {
		for _, r := range e.Resets {
			z.ResetInPlace(r.Clock, r.Value)
		}
	}

	// Target invariant, then delay closure.
	if !ex.applyInvariantInPlace(z, locs) {
		return fail(nil)
	}
	if !ex.Sys.IsUrgent(locs) {
		z.UpInPlace()
		if !ex.applyInvariantInPlace(z, locs) {
			return fail(nil)
		}
	}
	if ex.Max != nil {
		z.ExtrapolateInPlace(ex.Max)
	}
	sc.states = append(sc.states, State{Locs: locs, Vars: vars, Zone: z})
	return Succ{Trans: t, State: &sc.states[len(sc.states)-1]}, true, nil
}

// PredThroughEdge computes the discrete predecessor through transition t
// restricted to the source state: the sub-federation of src.Zone from which
// firing t lands inside target (target must be a subset of the successor's
// zone). Used by the game fixpoint:
//
//	pred_t(W) = srcZone ∧ guards ∧ unreset(W ∧ {x = v : x := v reset})
func (ex *Explorer) PredThroughEdge(src *State, t *Transition, target *dbm.Federation) *dbm.Federation {
	dim := ex.Sys.NumClocks()
	out := dbm.NewFederation(dim)
	if target.IsEmpty() {
		return out
	}

	// Guard zone within the source, built on one owned scratch zone.
	gz := src.Zone.Clone()
	for _, e := range t.Edges {
		for _, c := range e.Guard.Clocks {
			if !gz.ConstrainInPlace(c.I, c.J, c.Bound) {
				gz.Release()
				return out
			}
		}
	}

	// Collect resets (later resets shadow earlier ones for the same clock,
	// consistent with fire()). Edge reset lists are tiny and this runs once
	// per fixpoint re-evaluation per successor, so a scratch slice with a
	// linear shadow scan replaces the former per-call map.
	var resetBuf [4]model.ClockReset
	resets := resetBuf[:0]
	for _, e := range t.Edges {
		for _, r := range e.Resets {
			shadowed := false
			for i := range resets {
				if resets[i].Clock == r.Clock {
					resets[i].Value = r.Value
					shadowed = true
					break
				}
			}
			if !shadowed {
				resets = append(resets, r)
			}
		}
	}

	for _, w := range target.Zones() {
		// Constrain target to the reset values, then free those clocks to
		// recover the pre-reset valuations — all on one owned scratch zone.
		wz := w.Clone()
		ok := true
		for _, r := range resets {
			if !wz.ConstrainInPlace(r.Clock, 0, dbm.LE(r.Value)) || !wz.ConstrainInPlace(0, r.Clock, dbm.LE(-r.Value)) {
				ok = false
				break
			}
		}
		if !ok {
			wz.Release()
			continue
		}
		for _, r := range resets {
			wz.FreeInPlace(r.Clock)
		}
		if wz.IntersectInPlace(gz) {
			out.Add(wz)
		} else {
			wz.Release()
		}
	}
	gz.Release()
	return out
}
