// Batch solving: many test purposes against one model.
//
// A test campaign derives one reachability purpose per coverage goal, so it
// solves dozens of formulas over the SAME network. Forward exploration —
// firing every edge, canonicalizing and extrapolating zones — depends on
// the formula only through its extrapolation constants (clock atoms widen
// the per-clock maxima); the propagation fixpoint is what actually differs
// per purpose. A Batch therefore explores the full zone graph once per
// extrapolation signature and replays only the backward fixpoint for each
// purpose: fresh nodes share the immutable skeleton (symbolic states, zone
// federations, successor/predecessor wiring) and get their own goal and
// winning federations. The strict and cooperative games of the paper's
// Section 3.2 reuse the same skeleton too — cooperativity changes which
// player owns a transition, never the graph.

package game

import (
	"fmt"
	"time"

	"tigatest/internal/dbm"
	"tigatest/internal/model"
	"tigatest/internal/symbolic"
	"tigatest/internal/tctl"
)

// skeleton is one fully explored zone graph, reusable across purposes that
// share its extrapolation constants. The graph is immutable after build.
type skeleton struct {
	ex          *symbolic.Explorer
	nodes       []*node // win/goal/deltas of these nodes are never read again
	transitions int
	buildDur    time.Duration // wall-clock of the exploration (or overlay replay)
	// rounds records the order the graph was numbered in: frontier rounds
	// (a worker pool) or depth-first (one worker). Replays over the graph
	// (overlay.go, delta.go) drain in the same order, so their numbering
	// matches what exploring the replayed system would have assigned.
	rounds bool
	// layers is non-nil for ghost overlays: the ghost value (0 or 1) per
	// node. The overlay purpose is by construction "the watched edge has
	// fired", so per-purpose goals follow from the layer directly (the
	// whole zone on layer 1, empty on layer 0) and solveOnSkeleton skips
	// the per-node formula evaluation.
	layers []int8
	// stIndex is a lazily built content index (state hash -> node ids) used
	// by delta replay (delta.go) to map a mutant's states back onto this
	// skeleton. Built once, shared by every mutant replayed over the core.
	stIndex map[uint64][]int32
	// stHash memoizes each node's full-state hash alongside stIndex:
	// hashing walks the whole DBM, so replays must never re-hash a core
	// state they can name by id.
	stHash []uint64
}

// Batch solves a sequence of reachability purposes against one system,
// reusing one solver configuration (and one explored zone graph per
// extrapolation signature) across them. Edge-coverage purposes on
// ghost-instrumented clones can additionally be solved without exploring
// the clone at all (SolveEdgeGhost, overlay.go): the un-instrumented core
// skeleton is split into a two-layer overlay graph, so a whole campaign's
// edge goals pay the core exploration once per signature. Not safe for
// concurrent use.
type Batch struct {
	sys    *model.System
	opts   Options
	graphs map[string]*skeleton

	// Bounded overlay cache (overlayCacheCap entries): the strict and the
	// cooperative game of one edge goal run back to back, so a single slot
	// would suffice for one planner — but concurrent campaigns serialized
	// onto one batch (the service) interleave per-goal solves, so a few
	// slots keep each in-progress goal's overlay alive between its strict
	// and cooperative solve. Bounded because overlays are retained graphs
	// (~2x core); re-solving a long-finished goal is the service strategy
	// cache's job, not this one's.
	overlays fifoCache[overlayKey, *skeleton]

	// Incremental re-solve caches (delta.go). deltas holds mutant skeletons —
	// replayed over the core, or coldly explored under the E10 ablation —
	// keyed by merged extrapolation signature and edit-set hash; fixes holds
	// fully converged base fixpoints that seed the dirty-cone re-solve.
	// Both are bounded like the overlay cache.
	deltas fifoCache[deltaKey, *deltaSkeleton]
	fixes  fifoCache[fixKey, *baseFix]
}

// fifoCache is a map bounded to max entries that evicts in insertion order:
// once full, each new key displaces the oldest one. Lookups do not refresh
// an entry. Not safe for concurrent use (a Batch is single-caller).
type fifoCache[K comparable, V any] struct {
	max   int
	m     map[K]V
	order []K
}

func (c *fifoCache[K, V]) get(k K) (V, bool) {
	v, ok := c.m[k]
	return v, ok
}

// put inserts a key that get just missed.
func (c *fifoCache[K, V]) put(k K, v V) {
	if c.m == nil {
		c.m = make(map[K]V, c.max)
	}
	if len(c.order) >= c.max {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
	c.m[k] = v
	c.order = append(c.order, k)
}

// overlayCacheCap bounds the retained overlay skeletons per batch: enough
// for several interleaved in-progress goals, small enough that overlay
// memory stays a constant factor of the core skeleton's.
const overlayCacheCap = 8

// NewBatch prepares batch solving of sys under the given options. The
// Algorithm field is ignored: batch solving is inherently the Backward
// shape (explore everything once, then per-purpose fixpoints). Workers
// sizes the shared exploration's pool and fixes its order; every
// per-purpose fixpoint runs the seeded worklist, so PropagationWorkers is
// ignored too.
func NewBatch(sys *model.System, opts Options) (*Batch, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return &Batch{
		sys:      sys,
		opts:     opts,
		graphs:   map[string]*skeleton{},
		overlays: fifoCache[overlayKey, *skeleton]{max: overlayCacheCap},
		deltas:   fifoCache[deltaKey, *deltaSkeleton]{max: deltaCacheCap},
		fixes:    fifoCache[fixKey, *baseFix]{max: fixpointCacheCap},
	}, nil
}

// SetCancel installs the cancellation hook consulted by subsequent solves
// on this batch: per-purpose solvers poll it at their budget checkpoints
// (Options.Cancel), and the skeleton-building and overlay-replay loops poll
// it directly. Single-caller like every other Batch method — callers that
// serialize solves (the service layer) set it per solve and clear it with
// SetCancel(nil) afterwards, so a canceled goal never leaks its hook into
// the next caller's solve.
func (b *Batch) SetCancel(ch <-chan struct{}) { b.opts.Cancel = ch }

// maxSignature keys skeletons by their per-clock extrapolation constants.
func maxSignature(max []int) string {
	sig := make([]byte, 0, len(max)*3)
	for _, m := range max {
		sig = append(sig, byte(m), byte(m>>8), byte(m>>16))
	}
	return string(sig)
}

// ExtrapolationSignature returns a printable key identifying the explored
// zone graph a purpose solves on: forward exploration depends on the
// formula only through the per-clock extrapolation maxima, so purposes with
// equal signatures share a skeleton in a Batch. Strategy caches (the
// service layer) fold it into their content-addressed keys.
func ExtrapolationSignature(sys *model.System, formula *tctl.Formula) string {
	return fmt.Sprintf("%x", maxSignature(sys.MaxConstants(formula.ClockConstraints())))
}

// newSolver builds a solver shell for one purpose against sys — the batch
// system, a mutant of it, or a ghost-instrumented clone.
func (b *Batch) newSolver(sys *model.System, formula *tctl.Formula, coop bool) *solver {
	opts := b.opts
	opts.Algorithm = Backward
	opts.TreatAllControllable = coop
	s := newSolverShell(sys, formula, opts)
	s.lightStats = true
	return s
}

// Solve checks one reachability purpose, reusing the explored graph when
// its extrapolation signature has been seen before. coop selects the
// cooperative game (all transitions treated controllable — the paper's
// fallback when the strict game is not winnable).
func (b *Batch) Solve(formula *tctl.Formula, coop bool) (*Result, error) {
	if formula.Objective != tctl.Reach {
		return nil, fmt.Errorf("game: batch solving supports reachability purposes only, got %s", formula.Objective)
	}
	s := b.newSolver(b.sys, formula, coop)
	sk, _, hit, err := b.coreSkeleton(formula)
	if err != nil {
		return nil, err
	}
	if hit {
		s.stats.SkeletonHits++
	} else {
		// The solve that misses is the one that paid for the exploration.
		s.stats.SkeletonMisses++
		s.stats.ExploreDuration += sk.buildDur
	}
	return s.solveOnSkeleton(sk)
}

// coreSkeleton returns the explored zone graph of the batch system for the
// formula's extrapolation signature, exploring it on first use. The
// exploring solver runs goal-free (exploreOnly): per-purpose fixpoints
// recompute every goal anyway, and the formula may not even be evaluable
// against the core system (ghost-overlay purposes reference the clone's
// extra variable) — only its clock atoms matter here.
func (b *Batch) coreSkeleton(formula *tctl.Formula) (*skeleton, string, bool, error) {
	return b.coreSkeletonMax(formula, b.sys.MaxConstants(formula.ClockConstraints()))
}

// coreSkeletonMax is coreSkeleton under explicit extrapolation maxima: the
// incremental mutant path (delta.go) explores the base system under the
// pointwise max of the base and mutant constants, so the core graph it
// replays over is also a valid exploration of the mutant's clean region.
// For the base system's own constants the override is the identity and the
// skeleton is shared with ordinary purpose solves of the same signature.
func (b *Batch) coreSkeletonMax(formula *tctl.Formula, max []int) (*skeleton, string, bool, error) {
	sig := maxSignature(max)
	if sk, ok := b.graphs[sig]; ok {
		return sk, sig, true, nil
	}
	sk, err := b.exploreSkeleton(b.sys, formula, max)
	if err != nil {
		return nil, sig, false, err
	}
	b.graphs[sig] = sk
	return sk, sig, false, nil
}

// exploreSkeleton explores sys once under the given extrapolation maxima
// and freezes the resulting graph as a reusable skeleton. The exploring
// solver runs goal-free: the formula only contributes its clock atoms, so
// the skeleton is formula-independent within its signature.
func (b *Batch) exploreSkeleton(sys *model.System, formula *tctl.Formula, max []int) (*skeleton, error) {
	opts := b.opts
	opts.Algorithm = Backward
	s := newSolverShell(sys, formula, opts)
	s.exploreOnly = true
	s.lightStats = true
	if !opts.DisableExtrapolation {
		s.ex.Max = append([]int(nil), max...)
	}
	t0 := time.Now()
	init, err := s.ex.Initial()
	if err != nil {
		return nil, err
	}
	if _, err := s.addNode(init); err != nil {
		return nil, err
	}
	if err := s.exploreAll(); err != nil {
		return nil, err
	}
	return &skeleton{
		ex:          s.ex,
		nodes:       s.nodes,
		transitions: s.stats.Transitions,
		buildDur:    time.Since(t0),
		rounds:      s.workers > 1,
	}, nil
}

// solveOnSkeleton clones the skeleton into the solver (sharing the
// immutable parts, owning fresh goal/win federations) and runs the
// backward fixpoint for the solver's own formula.
func (s *solver) solveOnSkeleton(sk *skeleton) (*Result, error) {
	s.ex = sk.ex
	s.nodes = make([]*node, len(sk.nodes))
	s.inReeval = make([]bool, len(sk.nodes))
	// One contiguous backing array for the per-purpose nodes: a batch
	// consumer runs this loop once per purpose over the whole skeleton, so
	// per-node allocations multiply across the campaign.
	arena := make([]node, len(sk.nodes))
	for i, o := range sk.nodes {
		// Goal building walks the whole skeleton (millions of nodes on the
		// large LEP instances) before the fixpoint's own budget checks run.
		if i&4095 == 0 {
			if err := s.checkCancel(); err != nil {
				return nil, err
			}
		}
		var goal *dbm.Federation
		if sk.layers != nil {
			// Ghost overlay: the goal is the layer, no formula evaluation
			// needed. Identical content to evaluating "ghost == 1" per node,
			// and shared with the zone the same way nodeGoal shares it.
			if sk.layers[i] == 1 {
				goal = o.zoneFed
			} else {
				goal = s.noGoal
			}
		} else {
			var err error
			if goal, err = s.nodeGoal(o.st, o.zoneFed); err != nil {
				return nil, err
			}
		}
		n := &arena[i]
		*n = node{
			id:       o.id,
			st:       o.st,
			zoneFed:  o.zoneFed,
			goal:     goal,
			succs:    o.succs,
			preds:    o.preds,
			win:      dbm.NewFederation(o.st.Zone.Dim()),
			explored: true,
		}
		s.nodes[i] = n
	}
	s.stats.Nodes = len(s.nodes)
	s.stats.Transitions = sk.transitions
	if err := s.runWorklist(nil); err != nil {
		return nil, err
	}
	return s.finishResult()
}

// runWorklist runs the Batch fixpoint over an already explored graph: a
// seeded worklist instead of the classical round-robin. Every seed (every
// node when seeds is nil) is evaluated once in reverse id order — leaves of
// the exploration first, so information flows backward immediately — and
// only nodes whose successors grew are revisited. The fixpoint is the same
// unique least fixpoint; the worklist merely skips the re-evaluations a full
// pass would waste on unchanged nodes, which is most of them — batch
// consumers (campaign planning, the service) run dozens of these fixpoints
// per skeleton, so the waste was multiplied. The schedule also fixes the
// zone decompositions and progress stamps, and with them every strategy a
// campaign executes, so reports stay reproducible.
func (s *solver) runWorklist(seeds []bool) error {
	defer func(t0 time.Time) { s.stats.PropagateDuration += time.Since(t0) }(time.Now())
	for id := len(s.nodes) - 1; id >= 0; id-- {
		if seeds == nil || seeds[id] {
			s.scheduleReeval(id)
		}
	}
	for len(s.reevalQ) > 0 {
		if err := s.checkBudget(); err != nil {
			return err
		}
		id := s.reevalQ[0]
		s.reevalQ = s.reevalQ[1:]
		s.inReeval[id] = false
		s.reeval(id)
		if s.opts.EarlyTermination && s.initialDecided() {
			return nil
		}
	}
	return nil
}
