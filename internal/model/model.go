// Package model defines networks of Timed (I/O) Game Automata: processes
// with locations, invariants and edges, synchronizing pairwise over named
// channels, with shared clocks and bounded integer variables.
//
// Following the paper (Def. 2 and 3), the action alphabet is partitioned
// into controllable actions — inputs offered by the tester/controller — and
// uncontrollable actions — outputs chosen by the plant. Channels carry the
// partition; every edge synchronizing on a channel inherits its kind, and
// internal (non-synchronizing) edges declare their kind explicitly.
//
// Key types: System (the closed network; built imperatively via AddClock/
// AddChannel/AddProcess/AddEdge, checked by Validate), Process, Edge,
// Location and ClockConstraint. Clone deep-copies for mutation (mutants,
// ghost instrumentation) preserving global edge IDs; ExtractPlant builds a
// closed implementation network from the plant processes; Hash (hash.go)
// is the structural content hash the service cache keys on.
//
// Concurrency contract: a System is mutable only while being built; after
// construction (and always after Validate) every consumer treats it as
// immutable, so any number of solvers, interpreters and hashers may read
// one System concurrently. Mutation goes through Clone.
package model

import (
	"fmt"

	"tigatest/internal/dbm"
	"tigatest/internal/expr"
)

// Kind classifies actions per Definition 3 of the paper: inputs are
// controllable (tester-chosen), outputs are uncontrollable (plant-chosen).
type Kind int

const (
	// Controllable actions are inputs to the plant, chosen by the tester.
	Controllable Kind = iota
	// Uncontrollable actions are outputs of the plant (or internal moves of
	// the plant); the tester can only observe them.
	Uncontrollable
)

func (k Kind) String() string {
	if k == Controllable {
		return "controllable"
	}
	return "uncontrollable"
}

// Channel is a synchronization label; a! in one process pairs with a? in
// another.
type Channel struct {
	Name  string
	Kind  Kind
	Index int
}

// Clock is a named clock; Index is the global DBM index (1-based; 0 is the
// reference clock).
type Clock struct {
	Name  string
	Index int
}

// ClockConstraint is xi - xj ~ bound over global clock indices (j = 0
// encodes a plain bound on xi; i = 0 a lower bound on xj).
type ClockConstraint struct {
	I, J  int
	Bound dbm.Bound
}

// Constraint helpers over clock indices.

// GE builds x >= k (as 0 - x <= -k).
func GE(clock, k int) ClockConstraint {
	return ClockConstraint{I: 0, J: clock, Bound: dbm.LE(-k)}
}

// GT builds x > k.
func GT(clock, k int) ClockConstraint {
	return ClockConstraint{I: 0, J: clock, Bound: dbm.LT(-k)}
}

// LE builds x <= k.
func LE(clock, k int) ClockConstraint {
	return ClockConstraint{I: clock, J: 0, Bound: dbm.LE(k)}
}

// LT builds x < k.
func LT(clock, k int) ClockConstraint {
	return ClockConstraint{I: clock, J: 0, Bound: dbm.LT(k)}
}

// EQ builds x == k as a pair of constraints.
func EQ(clock, k int) []ClockConstraint {
	return []ClockConstraint{LE(clock, k), GE(clock, k)}
}

// DiffLE builds xi - xj <= k.
func DiffLE(i, j, k int) ClockConstraint {
	return ClockConstraint{I: i, J: j, Bound: dbm.LE(k)}
}

// DiffLT builds xi - xj < k.
func DiffLT(i, j, k int) ClockConstraint {
	return ClockConstraint{I: i, J: j, Bound: dbm.LT(k)}
}

// CompareClocks is the normal form of the clock atom xi - xj op k (j = 0
// for a single clock): the conjunction of difference constraints it
// denotes. xi - xj != k is a disjunction and has none; test purposes build
// it from < and >.
func CompareClocks(i, j int, op expr.Op, k int) ([]ClockConstraint, error) {
	switch op {
	case expr.OpLt:
		return []ClockConstraint{DiffLT(i, j, k)}, nil
	case expr.OpLe:
		return []ClockConstraint{DiffLE(i, j, k)}, nil
	case expr.OpGt:
		return []ClockConstraint{DiffLT(j, i, -k)}, nil
	case expr.OpGe:
		return []ClockConstraint{DiffLE(j, i, -k)}, nil
	case expr.OpEq:
		return []ClockConstraint{DiffLE(i, j, k), DiffLE(j, i, -k)}, nil
	}
	return nil, fmt.Errorf("!= on clocks is a disjunction, not a conjunction of bounds")
}

// String renders the constraint with clock names from sys.
func (c ClockConstraint) String(sys *System) string {
	name := func(i int) string {
		if i == 0 {
			return "0"
		}
		return sys.Clocks[i].Name
	}
	op := "<="
	if c.Bound.Strict() {
		op = "<"
	}
	if c.I == 0 {
		nop := ">="
		if c.Bound.Strict() {
			nop = ">"
		}
		return fmt.Sprintf("%s%s%d", name(c.J), nop, -c.Bound.Value())
	}
	if c.J == 0 {
		return fmt.Sprintf("%s%s%d", name(c.I), op, c.Bound.Value())
	}
	return fmt.Sprintf("%s-%s%s%d", name(c.I), name(c.J), op, c.Bound.Value())
}

// Guard combines clock constraints (conjunction) with a data predicate.
type Guard struct {
	Clocks []ClockConstraint
	Data   expr.Expr // nil means true
}

// ClockReset sets a clock to a constant value on an edge.
type ClockReset struct {
	Clock int
	Value int
}

// SyncDir is the synchronization role of an edge.
type SyncDir int

const (
	NoSync  SyncDir = iota
	Emit            // a!
	Receive         // a?
)

// Edge is a transition of one process.
type Edge struct {
	ID      int // global id across the system
	Proc    int
	Src     int
	Dst     int
	Guard   Guard
	Chan    int // channel index, or -1 for internal edges
	Dir     SyncDir
	Resets  []ClockReset
	Assigns []expr.Assign
	Kind    Kind // for internal edges; synchronized edges inherit the channel kind
}

// Location of a process. Invariants bound how long the process may stay;
// urgent and committed locations forbid the passage of time (committed
// additionally preempts all non-committed activity).
type Location struct {
	Name      string
	Invariant []ClockConstraint
	Urgent    bool
	Committed bool
}

// Process is one automaton of the network.
type Process struct {
	Name      string
	Index     int
	Locations []Location
	Init      int
	Edges     []Edge
	outEdges  [][]int // location -> indices into Edges
}

// System is a closed network of processes: the plant TIOGA composed with
// its environment automata (the paper's Fig. 2 plant plus Fig. 3 user).
type System struct {
	Name     string
	Clocks   []Clock // entry 0 is the reference clock
	Vars     *expr.Table
	Channels []Channel
	Procs    []*Process

	nextEdgeID int
}

// NewSystem creates an empty system.
func NewSystem(name string) *System {
	return &System{
		Name:   name,
		Clocks: []Clock{{Name: "t0", Index: 0}},
		Vars:   expr.NewTable(),
	}
}

// AddClock declares a clock and returns its global index.
func (s *System) AddClock(name string) int {
	for _, c := range s.Clocks[1:] {
		if c.Name == name {
			panic(fmt.Sprintf("model: duplicate clock %s", name))
		}
	}
	idx := len(s.Clocks)
	s.Clocks = append(s.Clocks, Clock{Name: name, Index: idx})
	return idx
}

// ClockByName finds a clock index; the reference clock has no name.
func (s *System) ClockByName(name string) (int, bool) {
	for _, c := range s.Clocks[1:] {
		if c.Name == name {
			return c.Index, true
		}
	}
	return 0, false
}

// NumClocks returns the DBM dimension (clocks incl. reference).
func (s *System) NumClocks() int { return len(s.Clocks) }

// AddChannel declares a channel of the given kind and returns its index.
func (s *System) AddChannel(name string, kind Kind) int {
	for _, c := range s.Channels {
		if c.Name == name {
			panic(fmt.Sprintf("model: duplicate channel %s", name))
		}
	}
	idx := len(s.Channels)
	s.Channels = append(s.Channels, Channel{Name: name, Kind: kind, Index: idx})
	return idx
}

// ChannelByName finds a channel index.
func (s *System) ChannelByName(name string) (int, bool) {
	for _, c := range s.Channels {
		if c.Name == name {
			return c.Index, true
		}
	}
	return 0, false
}

// AddProcess declares a process and returns a handle for building it.
func (s *System) AddProcess(name string) *Process {
	for _, p := range s.Procs {
		if p.Name == name {
			panic(fmt.Sprintf("model: duplicate process %s", name))
		}
	}
	p := &Process{Name: name, Index: len(s.Procs), Init: -1}
	s.Procs = append(s.Procs, p)
	return p
}

// Proc returns the process handle by index.
func (s *System) Proc(i int) *Process { return s.Procs[i] }

// ProcByName finds a process index.
func (s *System) ProcByName(name string) (int, bool) {
	for i := range s.Procs {
		if s.Procs[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// AddLocation adds a location to the process and returns its index. The
// first location added becomes the initial location unless SetInit is
// called.
func (p *Process) AddLocation(loc Location) int {
	for _, l := range p.Locations {
		if l.Name == loc.Name {
			panic(fmt.Sprintf("model: duplicate location %s in %s", loc.Name, p.Name))
		}
	}
	idx := len(p.Locations)
	p.Locations = append(p.Locations, loc)
	p.outEdges = append(p.outEdges, nil)
	if p.Init < 0 {
		p.Init = idx
	}
	return idx
}

// SetInit overrides the initial location.
func (p *Process) SetInit(loc int) { p.Init = loc }

// LocByName finds a location index by name.
func (p *Process) LocByName(name string) (int, bool) {
	for i, l := range p.Locations {
		if l.Name == name {
			return i, true
		}
	}
	return 0, false
}

// AddEdge appends an edge to the process within system s (the system hands
// out global edge IDs and resolves the kind of synchronized edges).
func (s *System) AddEdge(p *Process, e Edge) int {
	if e.Src < 0 || e.Src >= len(p.Locations) || e.Dst < 0 || e.Dst >= len(p.Locations) {
		panic(fmt.Sprintf("model: edge endpoints out of range in %s", p.Name))
	}
	if e.Dir == NoSync {
		e.Chan = -1
	} else {
		if e.Chan < 0 || e.Chan >= len(s.Channels) {
			panic(fmt.Sprintf("model: edge references unknown channel %d", e.Chan))
		}
		e.Kind = s.Channels[e.Chan].Kind
	}
	e.Proc = p.Index
	e.ID = s.nextEdgeID
	s.nextEdgeID++
	idx := len(p.Edges)
	p.Edges = append(p.Edges, e)
	p.outEdges[e.Src] = append(p.outEdges[e.Src], idx)
	return idx
}

// OutEdges lists indices of edges leaving the location.
func (p *Process) OutEdges(loc int) []int { return p.outEdges[loc] }

// NumEdges counts all edges in the system.
func (s *System) NumEdges() int { return s.nextEdgeID }

// EdgeByID retrieves an edge by its global id.
func (s *System) EdgeByID(id int) *Edge {
	for _, p := range s.Procs {
		for ei := range p.Edges {
			if p.Edges[ei].ID == id {
				return &p.Edges[ei]
			}
		}
	}
	return nil
}

// EdgeLabel renders a short human-readable description of an edge.
func (s *System) EdgeLabel(e *Edge) string {
	p := s.Procs[e.Proc]
	sync := "tau"
	if e.Dir == Emit {
		sync = s.Channels[e.Chan].Name + "!"
	} else if e.Dir == Receive {
		sync = s.Channels[e.Chan].Name + "?"
	}
	return fmt.Sprintf("%s.%s--%s->%s", p.Name, p.Locations[e.Src].Name, sync, p.Locations[e.Dst].Name)
}

// InitialLocations returns the initial location vector.
func (s *System) InitialLocations() []int {
	locs := make([]int, len(s.Procs))
	for i, p := range s.Procs {
		locs[i] = p.Init
	}
	return locs
}

// MaxConstants computes per-clock maximal constants from all guards,
// invariants and resets, plus any extra constraints (e.g. from the test
// purpose); used for zone extrapolation.
func (s *System) MaxConstants(extra []ClockConstraint) []int {
	max := make([]int, s.NumClocks())
	note := func(c ClockConstraint) {
		v := c.Bound.Value()
		if v < 0 {
			v = -v
		}
		if c.I > 0 && v > max[c.I] {
			max[c.I] = v
		}
		if c.J > 0 && v > max[c.J] {
			max[c.J] = v
		}
	}
	for _, p := range s.Procs {
		for _, l := range p.Locations {
			for _, c := range l.Invariant {
				note(c)
			}
		}
		for _, e := range p.Edges {
			for _, c := range e.Guard.Clocks {
				note(c)
			}
			for _, r := range e.Resets {
				if r.Value > max[r.Clock] {
					max[r.Clock] = r.Value
				}
			}
		}
	}
	for _, c := range extra {
		note(c)
	}
	return max
}

// ClockBounds returns the largest absolute constant of all clock guards and
// invariants and the largest clock reset value, in one pass that neither
// copies nor allocates (it runs once per test run).
func (s *System) ClockBounds() (maxConst, maxReset int) {
	note := func(cs []ClockConstraint) {
		for _, c := range cs {
			maxConst = max(maxConst, c.Bound.Value(), -c.Bound.Value())
		}
	}
	for _, p := range s.Procs {
		for li := range p.Locations {
			note(p.Locations[li].Invariant)
		}
		for ei := range p.Edges {
			e := &p.Edges[ei]
			note(e.Guard.Clocks)
			for _, r := range e.Resets {
				maxReset = max(maxReset, r.Value)
			}
		}
	}
	return maxConst, maxReset
}

// Validate performs structural sanity checks.
func (s *System) Validate() error {
	if len(s.Procs) == 0 {
		return fmt.Errorf("model %s: no processes", s.Name)
	}
	for _, p := range s.Procs {
		if len(p.Locations) == 0 {
			return fmt.Errorf("model %s: process %s has no locations", s.Name, p.Name)
		}
		if p.Init < 0 || p.Init >= len(p.Locations) {
			return fmt.Errorf("model %s: process %s has invalid initial location", s.Name, p.Name)
		}
		for ei := range p.Edges {
			e := &p.Edges[ei]
			if e.Dir != NoSync && (e.Chan < 0 || e.Chan >= len(s.Channels)) {
				return fmt.Errorf("model %s: %s edge %d has bad channel", s.Name, p.Name, ei)
			}
			for _, c := range e.Guard.Clocks {
				if c.I < 0 || c.I >= s.NumClocks() || c.J < 0 || c.J >= s.NumClocks() {
					return fmt.Errorf("model %s: %s edge %d guard references bad clock", s.Name, p.Name, ei)
				}
			}
			for _, r := range e.Resets {
				if r.Clock <= 0 || r.Clock >= s.NumClocks() {
					return fmt.Errorf("model %s: %s edge %d resets bad clock", s.Name, p.Name, ei)
				}
				if r.Value < 0 {
					return fmt.Errorf("model %s: %s edge %d resets clock to negative value", s.Name, p.Name, ei)
				}
			}
		}
		for li, l := range p.Locations {
			for _, c := range l.Invariant {
				if c.I < 0 || c.I >= s.NumClocks() || c.J < 0 || c.J >= s.NumClocks() {
					return fmt.Errorf("model %s: %s location %s references bad clock", s.Name, p.Name, p.Locations[li].Name)
				}
			}
		}
	}
	// Every synchronized edge needs at least one possible partner.
	for pi, p := range s.Procs {
		for ei := range p.Edges {
			e := &p.Edges[ei]
			if e.Dir == NoSync {
				continue
			}
			want := Receive
			if e.Dir == Receive {
				want = Emit
			}
			found := false
			for qi, q := range s.Procs {
				if qi == pi {
					continue
				}
				for fi := range q.Edges {
					f := &q.Edges[fi]
					if f.Chan == e.Chan && f.Dir == want {
						found = true
						break
					}
				}
				if found {
					break
				}
			}
			if !found {
				return fmt.Errorf("model %s: edge %s has no synchronization partner", s.Name, s.EdgeLabel(e))
			}
		}
	}
	return nil
}

// ConstrainZone intersects a zone with a conjunction of clock constraints.
// A nil result means the conjunction is unsatisfiable inside z.
func ConstrainZone(z *dbm.DBM, cs []ClockConstraint) *dbm.DBM {
	for _, c := range cs {
		z = z.Constrain(c.I, c.J, c.Bound)
		if z == nil {
			return nil
		}
	}
	return z
}

// InvariantZone computes the conjunction of all location invariants for a
// location vector, starting from the universal zone.
func (s *System) InvariantZone(locs []int) *dbm.DBM {
	z := dbm.New(s.NumClocks())
	for pi, li := range locs {
		z = ConstrainZone(z, s.Procs[pi].Locations[li].Invariant)
		if z == nil {
			return nil
		}
	}
	return z
}

// ApplyInvariant intersects z with the invariant of the location vector.
func (s *System) ApplyInvariant(z *dbm.DBM, locs []int) *dbm.DBM {
	for pi, li := range locs {
		z = ConstrainZone(z, s.Procs[pi].Locations[li].Invariant)
		if z == nil {
			return nil
		}
	}
	return z
}

// IsCommitted reports whether any process is in a committed location.
func (s *System) IsCommitted(locs []int) bool {
	for pi, li := range locs {
		if s.Procs[pi].Locations[li].Committed {
			return true
		}
	}
	return false
}

// IsUrgent reports whether any process is in an urgent or committed
// location (time may not pass).
func (s *System) IsUrgent(locs []int) bool {
	for pi, li := range locs {
		l := &s.Procs[pi].Locations[li]
		if l.Urgent || l.Committed {
			return true
		}
	}
	return false
}

// LocationString renders a location vector like "(Off,Init)".
func (s *System) LocationString(locs []int) string {
	out := "("
	for pi, li := range locs {
		if pi > 0 {
			out += ","
		}
		out += s.Procs[pi].Locations[li].Name
	}
	return out + ")"
}
