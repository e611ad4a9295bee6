// Solve engine: a sharded, hash-interned node store, the explorer
// (exploreBatch for one frontier round, exploreAll to exhaustion) and
// Solve's two schedules built on them.
//
// Successor computation (the expensive, pure part: firing every edge,
// canonicalizing zones, extrapolating) runs on Options.Workers goroutines;
// graph wiring stays sequential, so node numbering depends only on the
// exploration order. On-the-fly solves explore in whole-frontier rounds;
// exploreAll does too on a pool, and depth-first, one node at a time, on
// one worker. Every pool size numbers nodes identically within an order.
// Backward propagation in Solve runs as bottom-up passes over the SCC
// condensation of the explored graph (scc.go, propagate.go) on
// Options.PropagationWorkers goroutines; the win-set fixpoint is a unique
// least fixpoint, so every worker count produces semantically equal
// winning sets (zone decompositions may differ run to run). Batch
// fixpoints run the seeded worklist instead (batch.go). See DESIGN.md for
// the full protocol.

package game

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tigatest/internal/dbm"
	"tigatest/internal/symbolic"
)

// storeShardCount is the number of independently locked shards of the node
// store. Power of two; generous relative to typical worker counts so
// lookups of distinct discrete states rarely contend.
const storeShardCount = 64

// storeShard is one lock stripe of the node store: an open chain from
// discrete hash to the interned nodes carrying it, each with its zone hash.
// All zones of one discrete part share a chain, so a new node finds the
// discrete part it repeats on the chain it is interned on. The map is made
// on the first insert: a solver running on a prebuilt graph (a Batch
// purpose solve) interns nothing.
type storeShard struct {
	mu sync.Mutex
	m  map[uint64][]storeEntry
}

type storeEntry struct {
	zoneHash uint64
	n        *node
}

// find scans the chain of st's discrete hash. It returns the node interned
// for st, or else nil and some interned state with st's discrete part (nil
// when there is none). Called with sh.mu held.
func (sh *storeShard) find(dh, zh uint64, st *symbolic.State) (*node, *symbolic.State) {
	var same *symbolic.State
	for _, e := range sh.m[dh] {
		if e.zoneHash == zh && e.n.st.EqualTo(st) {
			return e.n, nil
		}
		if same == nil && e.n.st.DiscreteEqual(st) {
			same = e.n.st
		}
	}
	return nil, same
}

// nodeStore interns symbolic states. States that differ only in their zone
// share a shard and a chain (both are picked by the discrete hash), which
// keeps each discrete location vector's zones on one lock.
type nodeStore struct {
	shards  [storeShardCount]storeShard
	created atomic.Int64 // nodes interned so far (registered or not)
}

// storedNode is a created node and its symbolic state, allocated as one
// object.
type storedNode struct {
	n  node
	st symbolic.State
}

// lookupOrAdd interns st. New nodes are created with id -1 and must be
// numbered by registerNode on the sequential side; the boolean reports
// whether this call created the node. The store keeps a copy of st, not st
// itself, so st may live in a worker's symbolic.Scratch: a created node
// keeps st's zone and takes over the Locs and Vars of an interned node
// with its discrete part, copying st's own only for a discrete part not
// interned yet. Safe for concurrent use.
func (s *solver) lookupOrAdd(st *symbolic.State) (*node, bool, error) {
	dh, zh := st.DiscreteHash(), st.Zone.Hash()
	sh := &s.store.shards[dh&(storeShardCount-1)]
	sh.mu.Lock()
	n, _ := sh.find(dh, zh, st)
	sh.mu.Unlock()
	if n != nil {
		return n, false, nil
	}

	// Reserve a slot up front so the MaxNodes budget is exact even under
	// concurrent interning (check-then-increment would let racing workers
	// overshoot it).
	if reserved := s.store.created.Add(1); s.opts.MaxNodes > 0 && int(reserved) > s.opts.MaxNodes {
		s.store.created.Add(-1)
		return nil, false, budgetNodesErr(s.opts.MaxNodes)
	}
	// Compute the goal federation outside the lock (formula evaluation can
	// be expensive); double-check for a racing insert afterwards. Skeleton
	// building (game.Batch) skips it: the per-purpose fixpoint recomputes
	// every goal on its own nodes, so evaluating here would be wasted work —
	// and the driving formula may not even be well-typed against this system
	// (a ghost-overlay purpose references a variable the core lacks).
	zoneFed := dbm.FedFromDBM(st.Zone.Dim(), st.Zone)
	var goal *dbm.Federation
	if !s.exploreOnly {
		var err error
		if goal, err = s.nodeGoal(st, zoneFed); err != nil {
			s.store.created.Add(-1)
			return nil, false, err
		}
	}
	sn := &storedNode{st: symbolic.State{Zone: st.Zone}}
	sn.n = node{
		id:      -1,
		st:      &sn.st,
		zoneFed: zoneFed,
		goal:    goal,
		win:     dbm.NewFederation(st.Zone.Dim()),
	}
	n = &sn.n
	sh.mu.Lock()
	o, same := sh.find(dh, zh, st)
	if o != nil {
		sh.mu.Unlock()
		s.store.created.Add(-1) // lost the race; release the slot
		return o, false, nil
	}
	if same != nil {
		sn.st.Locs, sn.st.Vars = same.Locs, same.Vars
	} else {
		sn.st.Locs, sn.st.Vars = slices.Clone(st.Locs), slices.Clone(st.Vars)
	}
	if sh.m == nil {
		sh.m = make(map[uint64][]storeEntry)
	}
	sh.m[dh] = append(sh.m[dh], storeEntry{zoneHash: zh, n: n})
	sh.mu.Unlock()
	return n, true, nil
}

// registerNode numbers an interned node and schedules it for exploration.
// Sequential side only.
func (s *solver) registerNode(n *node) {
	n.id = len(s.nodes)
	s.nodes = append(s.nodes, n)
	s.inReeval = append(s.inReeval, false)
	s.exploreQ = append(s.exploreQ, n.id)
	s.stats.Nodes++
}

// workerSucc is one successor found by a worker, prior to wiring.
type workerSucc struct {
	trans *symbolic.Transition
	n     *node
}

// exploreTask is the per-frontier-node result of a worker.
type exploreTask struct {
	succs []workerSucc
	err   error
}

// exploreBatch explores every frontier node with the worker pool, then
// wires results into the graph in deterministic (frontier order, successor
// order) order: new nodes are numbered on the sequential side, so node ids
// do not depend on worker timing. Per-worker Stats are merged at the end.
func (s *solver) exploreBatch(frontier []int) error {
	tasks := make([]exploreTask, len(frontier))
	workers := s.workers
	if workers > len(frontier) {
		workers = len(frontier)
	}
	var cursor atomic.Int64
	wstats := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var (
				buf []symbolic.Succ
				sc  symbolic.Scratch
			)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(frontier) {
					return
				}
				// Per-task cancel poll: frontiers reach hundreds of
				// thousands of nodes, far too coarse for the round-level
				// checkBudget alone.
				if err := s.checkCancel(); err != nil {
					tasks[i] = exploreTask{err: err}
					continue
				}
				buf, tasks[i] = s.exploreOne(frontier[i], buf[:0], &sc, nil, &wstats[w])
			}
		}(w)
	}
	wg.Wait()
	for w := range wstats {
		s.stats.merge(wstats[w])
	}

	// Sequential wiring, in deterministic order.
	for i, id := range frontier {
		if err := tasks[i].err; err != nil {
			return err
		}
		s.wire(id, tasks[i].succs)
	}
	return nil
}

// wire links an explored node to its interned successors, in successor
// order, numbering the ones seen for the first time, and schedules the node
// for re-evaluation. Sequential side only.
func (s *solver) wire(id int, succs []workerSucc) {
	n := s.nodes[id]
	n.explored = true
	if len(succs) > 0 {
		n.succs = make([]succRef, len(succs))
	}
	for i, ws := range succs {
		if ws.n.id < 0 {
			s.registerNode(ws.n)
		}
		n.succs[i] = succRef{trans: ws.trans, target: ws.n.id}
		ws.n.addPred(id)
	}
	s.scheduleReeval(id)
}

// exploreOne computes and interns the successors of one node, appending
// them to into (a fresh slice when into is nil). The successors are built
// in sc, which the worker reuses from call to call. Worker side: it must
// not touch s.nodes, node ids, or any sequential-side state.
func (s *solver) exploreOne(id int, buf []symbolic.Succ, sc *symbolic.Scratch, into []workerSucc, wst *Stats) ([]symbolic.Succ, exploreTask) {
	n := s.nodes[id]
	succs, err := s.ex.AppendSuccessors(buf, n.st, sc)
	if err != nil {
		return succs, exploreTask{err: err}
	}
	if into == nil && len(succs) > 0 {
		into = make([]workerSucc, 0, len(succs))
	}
	t := exploreTask{succs: into}
	for i := range succs {
		nn, created, err := s.lookupOrAdd(succs[i].State)
		if err != nil {
			return succs, exploreTask{err: err}
		}
		if !created {
			// Duplicate successor: its freshly built zone is garbage
			// (sync.Pool is safe for concurrent release).
			succs[i].State.Zone.Release()
		}
		t.succs = append(t.succs, workerSucc{trans: succs[i].Trans, n: nn})
		wst.Transitions++
	}
	return succs, t
}

// drainQueue empties a work queue that visit refills, in one of the two
// orders every graph builder shares. Depth-first (rounds false) hands visit
// the most recently queued id, one at a time; frontier rounds (rounds true)
// hand it the whole queue, in queue order, while the ids it queues form the
// next round. Node numbering follows from this order, so the explorer and
// the replays that must reproduce its numbering (overlay.go, delta.go) all
// drain through here.
func drainQueue(q *[]int, rounds bool, visit func(ids []int) error) error {
	var one [1]int
	for len(*q) > 0 {
		ids := *q
		if rounds {
			*q = nil
		} else {
			last := len(ids) - 1
			one[0] = ids[last]
			*q, ids = ids[:last], one[:]
		}
		if err := visit(ids); err != nil {
			return err
		}
	}
	return nil
}

// exploreAll explores the graph to exhaustion from the queued nodes:
// depth-first on one worker, in whole-frontier rounds on a pool. Every
// explored node ends up scheduled for re-evaluation. Backward solves and
// Batch skeleton builds both explore through here; the depth-first path
// reuses one successor buffer instead of paying exploreBatch's per-round
// task and stats slices per node.
func (s *solver) exploreAll() error {
	defer func(t0 time.Time) { s.stats.ExploreDuration += time.Since(t0) }(time.Now())
	rounds := s.workers > 1
	var (
		buf []symbolic.Succ
		sc  symbolic.Scratch
		out []workerSucc
	)
	return drainQueue(&s.exploreQ, rounds, func(ids []int) error {
		if err := s.checkBudget(); err != nil {
			return err
		}
		if rounds {
			return s.exploreBatch(ids)
		}
		var t exploreTask
		buf, t = s.exploreOne(ids[0], buf[:0], &sc, out[:0], &s.stats)
		if t.err != nil {
			return t.err
		}
		out = t.succs
		s.wire(ids[0], t.succs)
		return nil
	})
}

// runOnTheFly is the on-the-fly algorithm: rounds that alternate an
// exploration of the whole current frontier with an SCC propagation pass
// over a fresh condensation of the graph explored so far, seeded with this
// round's scheduled nodes (propagate.go). Early termination is checked
// inside the pass whenever the initial node's winning set grows and again
// between rounds.
func (s *solver) runOnTheFly() error {
	for len(s.exploreQ) > 0 || len(s.reevalQ) > 0 {
		if len(s.reevalQ) > 0 {
			if err := s.checkBudget(); err != nil {
				return err
			}
			seeds := s.reevalQ
			s.reevalQ = nil
			if err := s.propagate(seeds, s.opts.EarlyTermination); err != nil {
				return err
			}
			if s.opts.EarlyTermination && s.initialDecided() {
				return nil
			}
		}
		if len(s.exploreQ) == 0 {
			return nil
		}
		if err := s.checkBudget(); err != nil {
			return err
		}
		frontier := s.exploreQ
		s.exploreQ = nil
		t0 := time.Now()
		err := s.exploreBatch(frontier)
		s.stats.ExploreDuration += time.Since(t0)
		if err != nil {
			return err
		}
	}
	return nil
}

// merge folds a worker's statistics into s.
func (s *Stats) merge(o Stats) {
	s.Nodes += o.Nodes
	s.Transitions += o.Transitions
	s.Reevals += o.Reevals
	s.Updates += o.Updates
	s.CrossSCCMessages += o.CrossSCCMessages
	if o.PeakHeapBytes > s.PeakHeapBytes {
		s.PeakHeapBytes = o.PeakHeapBytes
	}
}
