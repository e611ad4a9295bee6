// Package game solves timed games over TIOGA networks and synthesizes
// winning strategies, reimplementing the core of UPPAAL-TIGA as used by the
// paper: the symbolic on-the-fly timed-game algorithm (SOTFTR) of Cassez,
// David, Fleury, Larsen and Lime (CONCUR 2005), plus a classic full
// backward fixpoint in the style of Maler-Pnueli-Sifakis as a baseline.
//
// Reachability objectives (`control: A<> φ`) compute, per symbolic state
// with zone Z, the growing winning sub-federation
//
//	Win = (φ∩Z) ∪ Z ∩ PredT(Good, Bad∖φ)
//	Good = (φ∩Z) ∪ Win ∪ ⋃ pred_e(Win[succ])      e controllable
//	Bad  =            ⋃ pred_e(Z[succ]∖Win[succ]) e uncontrollable
//
// where PredT is the timed predecessor operator (see dbm.PredT) and pred_e
// the discrete predecessor through an edge. Ties between the players are
// resolved in favour of the opponent (the trajectory must avoid Bad up to
// and including the moment the controller acts), which makes synthesized
// strategies sound for black-box testing.
//
// Safety objectives (`control: A[] φ`) are solved through the dual game:
// the opponent's forced reachability of ¬φ is computed with the same
// operator and the winning set is its complement.
//
// Key types: Solve runs one purpose to a Result (winning sets, Stats and,
// when winnable, a Strategy — the state-based winning strategy a test
// driver consults); Batch amortizes many purposes over one explored zone
// graph per extrapolation signature, including ghost-overlay solving of
// edge-coverage purposes (overlay.go); Options selects the algorithm, the
// worker pools and budgets.
//
// Each phase has one schedule. On the fly, Solve alternates frontier
// exploration rounds with SCC propagation passes over the condensation
// (engine.go, propagate.go). Backward Solve and Batch explore the whole
// graph first (exploreAll: depth-first on one worker, frontier rounds on a
// pool); Backward Solve then runs one SCC pass, Batch a seeded worklist per
// purpose (batch.go).
//
// Concurrency contract: Solve and Batch methods are single-caller (a
// Batch is NOT safe for concurrent use — callers serialize, as the
// service layer does under its per-model mutex); internally Options.Workers
// and Options.PropagationWorkers fan work out across goroutines with
// deterministic node numbering. A returned Strategy is immutable and safe
// for any number of concurrent readers, which is what lets one synthesis
// serve a whole fleet of test executions.
package game

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"tigatest/internal/dbm"
	"tigatest/internal/model"
	"tigatest/internal/symbolic"
	"tigatest/internal/tctl"
)

// Algorithm selects the solver.
type Algorithm int

const (
	// OnTheFly interleaves forward exploration with backward propagation and
	// supports early termination (the paper's UPPAAL-TIGA algorithm).
	OnTheFly Algorithm = iota
	// Backward builds the full zone graph first, then solves the winning
	// fixpoint in one propagation pass (the classical baseline).
	Backward
)

func (a Algorithm) String() string {
	if a == OnTheFly {
		return "on-the-fly"
	}
	return "backward"
}

// Options configure a solve run.
type Options struct {
	Algorithm Algorithm
	// EarlyTermination stops as soon as the initial state is known winning.
	EarlyTermination bool
	// MaxNodes bounds forward exploration (0 = unlimited).
	MaxNodes int
	// MemBudget aborts with ErrBudget when the heap exceeds this many bytes
	// (0 = unlimited); used to reproduce the paper's "/" out-of-memory cells.
	MemBudget uint64
	// TimeBudget aborts with ErrBudget when solving exceeds this duration.
	TimeBudget time.Duration
	// TreatAllControllable solves the cooperative game (paper future work 4):
	// the plant is assumed to help, so outputs become controllable.
	TreatAllControllable bool
	// DisableExtrapolation turns off max-constant extrapolation (ablation;
	// termination is then only guaranteed for bounded models).
	DisableExtrapolation bool
	// Workers sets the number of goroutines that explore the zone graph
	// (0 = runtime.GOMAXPROCS(0)). It sizes one worker pool and picks no
	// engine: every count computes semantically identical winning sets.
	// Node numbering depends on it only through the exploration order: the
	// on-the-fly algorithm explores in frontier rounds at every count, while
	// Backward solves and Batch skeletons explore depth-first on one worker
	// and in frontier rounds on more (see engine.go).
	Workers int
	// PropagationWorkers sets the number of goroutines solving SCC
	// components concurrently during Solve's backward propagation (0 = same
	// as Workers). Batch ignores it: its fixpoints run the seeded worklist.
	PropagationWorkers int
	// Cancel, when non-nil, cancels the solve cooperatively: every schedule
	// polls it at its budget checkpoints (depth-first exploration per node,
	// exploration workers per task, propagation workers every 64
	// re-evaluations, the Batch worklist per re-evaluation) and
	// aborts with ErrCanceled once the channel is closed. Distinct from
	// ErrBudget so callers can tell an external abort from resource
	// exhaustion. The channel must only ever be closed, never sent on.
	Cancel <-chan struct{}
	// DisableIncremental turns off every incremental re-solve path (the
	// E10 ablation): condensations are rebuilt from scratch instead of
	// updated from the edge log, and Batch.SolveDelta falls back to a cold
	// exploration of the mutated system (over the same merged extrapolation
	// maxima, so graphs, node counts and reports stay byte-identical with
	// the ablation on or off).
	DisableIncremental bool
}

// ErrBudget reports that the memory or time budget was exhausted, the
// analogue of the "/" (out of memory) entries in the paper's Table 1.
var ErrBudget = errors.New("game: resource budget exhausted")

// ErrCanceled reports that the solve was aborted through Options.Cancel
// (an external deadline or shutdown), as opposed to exhausting its own
// resource budget (ErrBudget).
var ErrCanceled = errors.New("game: solve canceled")

// Stats summarizes solver effort.
type Stats struct {
	Nodes         int           // symbolic states explored
	Transitions   int           // graph edges
	Reevals       int           // backward update steps
	Updates       int           // updates that grew a winning set
	PeakHeapBytes uint64        // sampled heap high-water mark
	Duration      time.Duration // wall-clock solve time

	// SCC-propagation counters (zero for Batch solves, whose fixpoints run
	// the seeded worklist).
	SCCs                     int // components in the last condensation of the graph
	PropagationRounds        int // SCC propagation passes run
	CrossSCCMessages         int // reschedules that crossed a component boundary
	CondensationReuses       int // propagation passes that reused the previous condensation
	CondensationIncrementals int // condensations updated in place from the edge log

	// Batch counters (zero outside game.Batch solving): whether this solve
	// reused an already-explored skeleton for its extrapolation signature.
	// For ghost-overlay solves (Batch.SolveEdgeGhost) the Skeleton counters
	// track the per-edge overlay graph (shared between the strict and the
	// cooperative game of one goal), while the SkeletonCore counters track
	// the un-instrumented core skeleton the overlay was split from — the
	// shared-core planner's headline reuse metric.
	SkeletonHits       int
	SkeletonMisses     int
	SkeletonCoreHits   int
	SkeletonCoreMisses int

	// Phase wall-clock breakdown (the observability layer's solver phase
	// timings). ExploreDuration covers forward exploration — for batch
	// solves the skeleton build, charged to the solve that missed the
	// skeleton cache; PropagateDuration the backward fixpoint including
	// the condensation passes it triggers; CondenseDuration those Tarjan
	// passes alone (a subset of PropagateDuration); OverlayDuration the
	// ghost-overlay and delta graph replays.
	ExploreDuration   time.Duration
	CondenseDuration  time.Duration
	PropagateDuration time.Duration
	OverlayDuration   time.Duration
}

// Result of a solve run.
type Result struct {
	Winnable bool
	Formula  *tctl.Formula
	Strategy *Strategy // non-nil for winnable reachability (and cooperative) games
	// Win maps node ids to winning sub-federations (reachability); for
	// safety objectives it holds the LOSING sets of the dual game instead.
	Win   map[int]*dbm.Federation
	Stats Stats

	debugNodes []*node

	// Compiled-consultation cache: CompiledStrategy() compiles the strategy
	// at most once per Result, so cached results shared across sessions,
	// campaigns and matrix cells share one compiled artifact.
	compileOnce sync.Once
	compiled    *CompiledStrategy
	compileErr  error
}

// node is one symbolic state of the game graph.
type node struct {
	id       int
	st       *symbolic.State
	zoneFed  *dbm.Federation // Z as a federation (cached)
	goal     *dbm.Federation // φ ∩ Z (reach) or ¬φ ∩ Z (safety dual)
	succs    []succRef
	preds    []int
	predSet  map[int]struct{} // dedup index for preds, built above a threshold
	win      *dbm.Federation  // winning (reach) / losing (safety dual) subset
	deltas   []winDelta
	explored bool
	full     bool // win covers the whole zone; no further growth possible
}

// predSetThreshold is the pred-list length at which addPred switches from
// a linear scan to a map index. Dense LEP graphs reach fan-ins in the
// hundreds, where the O(degree²) scan of the old appendUnique dominated
// graph wiring.
const predSetThreshold = 16

// addPred records id as a predecessor, deduplicating. The insertion order
// of preds is preserved (the map is only an index).
func (n *node) addPred(id int) {
	if n.predSet == nil {
		for _, x := range n.preds {
			if x == id {
				return
			}
		}
		n.preds = append(n.preds, id)
		if len(n.preds) >= predSetThreshold {
			n.predSet = make(map[int]struct{}, 2*len(n.preds))
			for _, x := range n.preds {
				n.predSet[x] = struct{}{}
			}
		}
		return
	}
	if _, ok := n.predSet[id]; ok {
		return
	}
	n.predSet[id] = struct{}{}
	n.preds = append(n.preds, id)
}

type succRef struct {
	trans  symbolic.Transition
	target int
}

type winDelta struct {
	fed   *dbm.Federation
	stamp int
}

// solver carries the shared state of one run.
type solver struct {
	sys     *model.System
	formula *tctl.Formula
	opts    Options
	ex      *symbolic.Explorer

	nodes          []*node
	store          *nodeStore // hash-interned symbolic states, sharded by discrete hash
	workers        int
	propWorkers    int
	exploreOnly    bool // skeleton building: skip per-node goal evaluation
	lightStats     bool // batch purpose solve: skip budget-free heap sampling
	stamp          int
	stats          Stats
	budgetCalls    int     // checkBudget invocations
	lastSampleWork int     // Nodes+Reevals at the last heap sample (throttle)
	initPoint      []int64 // scratch valuation for initialDecided
	t0             time.Time
	safety         bool            // solving the safety dual (win federations hold LOSING sets)
	noGoal         *dbm.Federation // the empty goal shared by every node φ misses

	// Condensation cache: condense() reuses lastCond while the graph shape
	// (node and transition counts; nodes and edges are only ever added) is
	// unchanged since it was computed, and updates it incrementally from
	// condEdits — the edges appended to pre-condensation nodes since — when
	// the graph has grown (see scc.go).
	lastCond      *condensation
	lastCondNodes int
	lastCondTrans int
	condEdits     [][2]int32

	exploreQ []int
	reevalQ  []int
	inReeval []bool
}

// Solve checks the test purpose on the system and, for winnable
// reachability objectives, synthesizes a winning strategy.
func Solve(sys *model.System, formula *tctl.Formula, opts Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	s := newSolverShell(sys, formula, opts)

	init, err := s.ex.Initial()
	if err != nil {
		return nil, err
	}
	if _, err := s.addNode(init); err != nil {
		return nil, err
	}

	if err := s.run(); err != nil {
		return nil, err
	}
	return s.finishResult()
}

// newSolverShell builds a solver with its explorer and worker counts
// resolved, but no nodes yet (shared by Solve and the batch engine).
func newSolverShell(sys *model.System, formula *tctl.Formula, opts Options) *solver {
	s := &solver{
		sys:     sys,
		formula: formula,
		opts:    opts,
		store:   newNodeStore(),
		workers: opts.Workers,
		t0:      time.Now(),
		safety:  formula.Objective == tctl.Safety,
		noGoal:  dbm.NewFederation(sys.NumClocks()),
	}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	s.propWorkers = opts.PropagationWorkers
	if s.propWorkers <= 0 {
		s.propWorkers = s.workers
	}
	s.initPoint = make([]int64, sys.NumClocks()-1)
	s.ex = symbolic.NewExplorer(sys, formula.ClockConstraints())
	if opts.DisableExtrapolation {
		s.ex.Max = nil
	}
	return s
}

// finishResult stamps the final statistics and packages the Result
// (winnability, winning sets, strategy). The closing heap sample — a
// stop-the-world runtime.ReadMemStats — only runs when a memory budget is
// enforced: batch consumers finish dozens of per-purpose solves per
// skeleton, and PeakHeapBytes stays available from checkBudget's throttled
// samples for the diagnostic (budget-free) case.
func (s *solver) finishResult() (*Result, error) {
	s.stats.Duration = time.Since(s.t0)
	if s.opts.MemBudget > 0 {
		s.sampleHeap()
	}

	res := &Result{Formula: s.formula, Stats: s.stats, Win: map[int]*dbm.Federation{}}
	for _, n := range s.nodes {
		res.Win[n.id] = n.win
	}
	initWinning := s.nodes[0].win.ContainsPoint(s.initPoint, 1)
	if s.safety {
		// win holds the opponent's forced-reach (losing) sets.
		res.Winnable = !initWinning
		if res.Winnable {
			res.Strategy = s.buildSafetyStrategy()
		}
		res.debugNodes = s.nodes
		return res, nil
	}
	res.Winnable = initWinning
	if res.Winnable {
		res.Strategy = s.buildStrategy()
	}
	res.debugNodes = s.nodes
	return res, nil
}

// DebugNodeLabel renders a node for diagnostics (id, locations, zone).
func (r *Result) DebugNodeLabel(sys *model.System, id int) string {
	if id < 0 || id >= len(r.debugNodes) {
		return fmt.Sprintf("node %d", id)
	}
	n := r.debugNodes[id]
	return fmt.Sprintf("node %d %s vars=%v zone=%s", id, sys.LocationString(n.st.Locs), n.st.Vars, n.st.Zone)
}

// budgetNodesErr reports the MaxNodes budget as exhausted.
func budgetNodesErr(max int) error {
	return fmt.Errorf("%w: more than %d symbolic states", ErrBudget, max)
}

// addNode interns a symbolic state and registers it immediately, returning
// its node id. Sequential side only.
func (s *solver) addNode(st *symbolic.State) (int, error) {
	n, created, err := s.lookupOrAdd(st)
	if err != nil {
		return 0, err
	}
	if created {
		s.registerNode(n)
	}
	return n.id, nil
}

// nodeGoal computes the target federation of the node: φ∩Z for
// reachability, ¬φ∩Z for the safety dual (what the opponent tries to hit).
// zoneFed is the node's Z. A target covering the whole zone IS zoneFed and
// an empty one is the solver's shared noGoal, so only a clock-cut target
// builds a federation of its own; either way the result is read-only for
// the rest of the solve.
func (s *solver) nodeGoal(st *symbolic.State, zoneFed *dbm.Federation) (*dbm.Federation, error) {
	v, fed, err := s.formula.Goal(s.sys, st.Locs, st.Vars, st.Zone)
	if err != nil {
		return nil, err
	}
	if s.safety {
		switch v {
		case tctl.None:
			v = tctl.All
		case tctl.All:
			v = tctl.None
		default:
			loss := dbm.FedFromDBM(st.Zone.Dim(), st.Zone.Clone())
			loss.SubtractInPlace(fed)
			fed.Release() // Goal's federation is freshly built, never shared
			return loss, nil
		}
	}
	switch v {
	case tctl.All:
		return zoneFed, nil
	case tctl.None:
		return s.noGoal, nil
	}
	return fed, nil
}

// run drives the work queues to exhaustion (or early termination/budget).
// Backward explores the whole graph, then runs one propagation pass seeded
// with every node: solving components to local convergence in reverse
// topological order reaches the global least fixpoint in a single pass.
func (s *solver) run() error {
	if s.opts.Algorithm != Backward {
		return s.runOnTheFly()
	}
	if err := s.exploreAll(); err != nil {
		return err
	}
	seeds := s.reevalQ
	s.reevalQ = nil
	return s.propagate(seeds, false)
}

// initialDecided reports whether the initial point is already known
// winning (reach) or losing (safety dual).
func (s *solver) initialDecided() bool {
	return s.nodes[0].win.ContainsPoint(s.initPoint, 1)
}

func (s *solver) scheduleReeval(id int) {
	if !s.inReeval[id] {
		s.inReeval[id] = true
		s.reevalQ = append(s.reevalQ, id)
	}
}

// controllableInGame reports how the transition is treated by the current
// game (cooperative solving promotes everything to controllable; in the
// safety dual the roles of the players are swapped).
func (s *solver) controllableInGame(t *symbolic.Transition) bool {
	ctrl := t.Kind == model.Controllable || s.opts.TreatAllControllable
	if s.safety {
		return !ctrl
	}
	return ctrl
}

// reeval recomputes the winning sub-federation of one node. Worklist path:
// growth is applied under the solver's global stamp and predecessors go
// back on the global re-evaluation queue.
func (s *solver) reeval(id int) {
	n := s.nodes[id]
	if !n.explored || n.full {
		return // unexplored, or already maximal
	}
	delta := s.reevalCore(n, &s.stats)
	if delta == nil {
		return
	}
	s.stamp++
	s.stats.Updates++
	s.applyDelta(n, delta, s.stamp)
	// Self-loops need no special casing: addPred records the node as its
	// own predecessor, so the preds loop reschedules it (the SCC propagator
	// in propagate.go relies on the same invariant).
	for _, p := range n.preds {
		s.scheduleReeval(p)
	}
}

// reevalCore computes one application of the fixpoint operator at n and
// returns the growth of its winning set (nil when it did not grow). It
// reads only n and the winning sets of n's successors and writes nothing
// but *st, so the parallel propagator may run it concurrently on nodes
// whose successors are frozen (same component: same worker; downstream
// component: already converged).
func (s *solver) reevalCore(n *node, st *Stats) *dbm.Federation {
	st.Reevals++

	dim := s.sys.NumClocks()
	// good shares zone pointers with n.goal and n.win — PredT never mutates
	// its inputs, so the former deep clone per reeval is unnecessary.
	good := dbm.NewFederation(dim)
	good.Union(n.goal)
	good.Union(n.win)
	bad := dbm.NewFederation(dim)

	for i := range n.succs {
		sc := &n.succs[i]
		t := s.nodes[sc.target]
		if s.controllableInGame(&sc.trans) {
			if !t.win.IsEmpty() {
				p := s.ex.PredThroughEdge(n.st, &sc.trans, t.win)
				good.Union(p)
				p.Recycle()
			}
		} else if t.win.IsEmpty() {
			// Nothing won at the target yet: the whole zone is losing, and
			// PredThroughEdge only reads its target, so no clone is needed.
			p := s.ex.PredThroughEdge(n.st, &sc.trans, t.zoneFed)
			bad.Union(p)
			p.Recycle()
		} else {
			loseFed := t.zoneFed.Subtract(t.win)
			if !loseFed.IsEmpty() {
				p := s.ex.PredThroughEdge(n.st, &sc.trans, loseFed)
				bad.Union(p)
				p.Recycle()
			}
			loseFed.Release() // PredThroughEdge clones what it keeps
		}
	}

	// Forced moves (the paper's maximal-run semantics, Def. 8): where time
	// is blocked by invariants, the opponent cannot stall — some enabled
	// move must happen. Boundary points where every enabled opponent move
	// leads into the winning set are therefore good.
	if forced := s.forcedGood(n); forced != nil {
		good.Union(forced)
		forced.Recycle()
	}

	// Goal states are absorbing: reaching φ wins immediately, so the
	// trajectory only needs to avoid Bad∖φ, and φ∩Z is winning outright.
	// bad exclusively owns its zones (fresh out of PredThroughEdge), so the
	// subtraction can consume it.
	bad.SubtractInPlace(n.goal)
	w := dbm.PredT(good, bad)
	bad.Release()
	good.Recycle() // zones shared with n.goal/n.win or already transferred
	wz := w.Intersect(n.zoneFed)
	w.Release()
	w = wz
	w.Union(n.goal)

	var delta *dbm.Federation
	if n.win.IsEmpty() {
		// First growth of this node: w as a whole is the delta.
		delta = w
	} else {
		delta = w.Subtract(n.win)
		w.Recycle() // w's zones are shared with n.goal or superseded
	}
	if delta.IsEmpty() {
		delta.Recycle()
		return nil
	}
	return delta
}

// applyDelta grows n's winning set by delta under the given progress
// stamp. Callers own the right to mutate n (the worklist globally, a
// propagation worker through component ownership).
func (s *solver) applyDelta(n *node, delta *dbm.Federation, stamp int) {
	n.deltas = append(n.deltas, winDelta{fed: delta, stamp: stamp})
	n.win.Union(delta)
	rest := n.zoneFed.Subtract(n.win)
	if rest.IsEmpty() {
		n.full = true
	}
	rest.Release()
}

// forcedGood computes the forced-move contribution of a node: the
// time-blocked boundary points at which at least one opponent edge is
// enabled and every enabled opponent edge lands in the target's winning
// set. The dual (safety) solve skips forcing — a conservative
// approximation documented in the package comment.
func (s *solver) forcedGood(n *node) *dbm.Federation {
	if s.safety {
		return nil
	}
	// Every contribution is a predecessor of some opponent target's winning
	// set, so without an opponent edge into a non-empty winning set the
	// result is empty — skip before building the boundary federation. The
	// guard is exact (someWin below would be empty), and it short-circuits
	// the two cases that dominate batch solving: cooperative games (every
	// transition is controllable in the game, so there is no opponent) and
	// early fixpoint stages (no winning set has grown yet).
	anyForced := false
	for i := range n.succs {
		sc := &n.succs[i]
		if !s.controllableInGame(&sc.trans) && !s.nodes[sc.target].win.IsEmpty() {
			anyForced = true
			break
		}
	}
	if !anyForced {
		return nil
	}
	dim := s.sys.NumClocks()
	var boundary *dbm.Federation
	if s.sys.IsUrgent(n.st.Locs) {
		// Urgent/committed locations block time everywhere. Intersect and
		// Subtract below never mutate, so sharing the node's federation is
		// safe.
		boundary = n.zoneFed
	} else {
		interior := n.st.Zone.DelayableInterior()
		boundary = dbm.SubtractDBM(n.st.Zone, interior)
		interior.Release()
	}
	if boundary.IsEmpty() {
		if boundary != n.zoneFed {
			boundary.Recycle()
		}
		return nil
	}
	someWin := dbm.NewFederation(dim)
	someEscape := dbm.NewFederation(dim)
	for i := range n.succs {
		sc := &n.succs[i]
		if s.controllableInGame(&sc.trans) {
			continue
		}
		t := s.nodes[sc.target]
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
		enabledFed := dbm.FedFromDBM(dim, enabled)
		p := s.ex.PredThroughEdge(n.st, &sc.trans, t.win)
		esc := enabledFed.Subtract(p)
		enabledFed.Recycle() // its zone may be the node's own; wrapper only
		someWin.Union(p)
		p.Recycle()
		someEscape.Union(esc)
		esc.Recycle()
	}
	cleanup := func() {
		if boundary != n.zoneFed {
			boundary.Release()
		}
		someWin.Release()
		someEscape.Release()
	}
	if someWin.IsEmpty() {
		cleanup()
		return nil
	}
	forced := boundary.Intersect(someWin)
	forced.SubtractInPlace(someEscape)
	cleanup()
	return forced
}

// checkBudget enforces the time budget on every call and samples the heap
// for the memory budget once per 64 units of solver work (nodes explored +
// re-evaluations). Throttling on work rather than on calls keeps
// runtime.ReadMemStats — a stop-the-world pause — rare on the per-node
// callers (depth-first exploration and the Batch worklist; the former
// Reevals%64 condition held on every one of those calls) while still
// sampling every round of the frontier-round callers (which call once per
// frontier, however large).
func (s *solver) checkBudget() error {
	if err := s.checkCancel(); err != nil {
		return err
	}
	if s.opts.TimeBudget > 0 && time.Since(s.t0) > s.opts.TimeBudget {
		return fmt.Errorf("%w: time budget %v", ErrBudget, s.opts.TimeBudget)
	}
	if s.opts.MemBudget > 0 || !s.lightStats {
		if work := s.stats.Nodes + s.stats.Reevals; work-s.lastSampleWork >= 64 || s.budgetCalls == 0 {
			s.lastSampleWork = work
			s.sampleHeap()
			if s.opts.MemBudget > 0 && s.stats.PeakHeapBytes > s.opts.MemBudget {
				return fmt.Errorf("%w: memory budget %d bytes", ErrBudget, s.opts.MemBudget)
			}
		}
	}
	s.budgetCalls++
	return nil
}

// checkCancel polls Options.Cancel without blocking. Safe from any
// goroutine (the channel is read-only and the poll is stateless), so
// exploration and propagation workers call it directly.
func (s *solver) checkCancel() error {
	if s.opts.Cancel == nil {
		return nil
	}
	select {
	case <-s.opts.Cancel:
		return ErrCanceled
	default:
		return nil
	}
}

func (s *solver) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.stats.PeakHeapBytes {
		s.stats.PeakHeapBytes = ms.HeapAlloc
	}
}
