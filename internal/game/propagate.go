// Backward propagation over the SCC condensation (Solve's schedule).
//
// One propagation pass takes a seed set of nodes whose inputs changed
// (newly explored nodes, or nodes whose successors grew in an earlier
// round), condenses the explored graph (scc.go), and runs the win-set
// fixpoint bottom-up over the condensation DAG: a component becomes ready
// once every successor component it depends on has fully converged, ready
// components are solved concurrently by a worker pool, and within a
// component the fixpoint iterates a sequential local work queue to
// convergence. Win-set growth that crosses a component boundary is posted
// to the target component's mailbox — one small mutex per involved
// component, only ever contended by concurrent downstream solvers — and
// drained when that component starts.
//
// Safety of the concurrency: a component's nodes are read and written by
// exactly one worker at a time, successor components are final before a
// component starts, and predecessor components have not started while it
// runs. The fixpoint is a unique least fixpoint, so any schedule produces
// winning sets semantically equal to the Batch worklist's; the zone
// decompositions (and stamps) may differ run to run, which is why the
// cross-schedule tests compare federations with Equals rather than by hash.

package game

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// mailbox collects cross-component reschedules for one component. Pushes
// come from solvers of downstream components (possibly several at once);
// the drain happens once, by the component's own solver, after all pushers
// are done (the dependency counter orders it after them).
type mailbox struct {
	mu  sync.Mutex
	ids []int32
}

func (b *mailbox) push(id int32) {
	b.mu.Lock()
	b.ids = append(b.ids, id)
	b.mu.Unlock()
}

// propagator carries the shared state of one propagation pass.
type propagator struct {
	s    *solver
	cond *condensation

	// slot numbers the involved components (those this pass's seeds can
	// affect) 0, 1, ...; it is -1 for every other component. boxes has one
	// mailbox per slot.
	slot     []int32
	boxes    []mailbox
	depCount []int32 // remaining unsolved involved successor components (atomic)
	// The seeds bucketed by component, stably: component c's seed node ids
	// are seeds[seedAt[c]:seedAt[c+1]], in the order the pass received them.
	seeds  []int32
	seedAt []int32

	ready     chan int32   // components whose dependencies have converged
	remaining atomic.Int32 // involved components not yet finished
	stampCtr  atomic.Int64 // global update stamps (progress measure)

	checkEarly bool        // early-termination enabled for this pass
	stopped    atomic.Bool // stop dispatching work (early or error)

	errMu sync.Mutex
	err   error
}

func (p *propagator) fail(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
	p.stopped.Store(true)
}

// propagate runs one parallel propagation pass from the given seeds.
// Seeds must carry their inReeval marks (they come straight off s.reevalQ);
// the pass consumes the marks and returns with the global fixpoint reached
// for every node whose inputs the seeds could affect — unless early
// termination or a budget error stopped it midway.
func (s *solver) propagate(seeds []int, checkEarly bool) error {
	if len(seeds) == 0 {
		return nil
	}
	defer func(t0 time.Time) { s.stats.PropagateDuration += time.Since(t0) }(time.Now())
	cond := s.condense()
	nc := cond.numComps()
	p := &propagator{
		s:          s,
		cond:       cond,
		slot:       make([]int32, nc),
		depCount:   make([]int32, nc),
		checkEarly: checkEarly,
	}
	p.stampCtr.Store(int64(s.stamp))
	s.stats.SCCs = nc
	s.stats.PropagationRounds++
	p.bucketSeeds(seeds)

	// Only components upstream of a seed (via cross-component predecessor
	// edges) can change; everything else is already at the fixpoint.
	for c := range p.slot {
		p.slot[c] = -1
	}
	bfs := make([]int32, 0, nc)
	total := int32(0)
	involve := func(c int32) {
		p.slot[c] = total
		total++
		bfs = append(bfs, c)
	}
	for c := 0; c < nc; c++ {
		if p.seedAt[c] < p.seedAt[c+1] {
			involve(int32(c))
		}
	}
	for len(bfs) > 0 {
		c := bfs[len(bfs)-1]
		bfs = bfs[:len(bfs)-1]
		for _, pr := range cond.preds(int(c)) {
			if p.slot[pr] < 0 {
				involve(pr)
			}
		}
	}
	p.boxes = make([]mailbox, total)

	// A component waits for its involved successors only; the rest are
	// final already.
	for c := 0; c < nc; c++ {
		if p.slot[c] < 0 {
			continue
		}
		for _, d := range cond.succs(c) {
			if p.slot[d] >= 0 {
				p.depCount[c]++
			}
		}
	}
	p.remaining.Store(total)
	// Every involved component is sent exactly once, so the channel never
	// blocks a sender and is closed strictly after the last send.
	p.ready = make(chan int32, total)
	for c := 0; c < nc; c++ {
		if p.slot[c] >= 0 && p.depCount[c] == 0 {
			p.ready <- int32(c)
		}
	}

	workers := s.propWorkers
	if workers > int(total) {
		workers = int(total)
	}
	if workers < 1 {
		workers = 1
	}
	wstats := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pw := &propWorker{p: p}
			for cid := range p.ready {
				if !p.stopped.Load() {
					if err := pw.solveComp(cid); err != nil {
						p.fail(err)
					}
				}
				p.finish(cid)
			}
			wstats[w] = pw.st
		}(w)
	}
	wg.Wait()
	for w := range wstats {
		s.stats.merge(wstats[w])
	}
	s.stamp = int(p.stampCtr.Load())
	return p.err
}

// bucketSeeds sorts the seed node ids by component with a stable counting
// sort, so every component's seeds keep the order they came in.
func (p *propagator) bucketSeeds(seeds []int) {
	compOf, nc := p.cond.compOf, p.cond.numComps()
	// Count, sum to every bucket's end, then fill back to front: each
	// bucket's cursor ends at its start.
	p.seedAt = make([]int32, nc+1)
	for _, id := range seeds {
		p.seedAt[compOf[id]]++
	}
	for c := 1; c < nc; c++ {
		p.seedAt[c] += p.seedAt[c-1]
	}
	p.seedAt[nc] = int32(len(seeds))
	p.seeds = make([]int32, len(seeds))
	for i := len(seeds) - 1; i >= 0; i-- {
		c := compOf[seeds[i]]
		p.seedAt[c]--
		p.seeds[p.seedAt[c]] = int32(seeds[i])
	}
}

// finish marks a component converged: predecessors waiting on it may become
// ready, and the pass ends when the last involved component finishes. On a
// stopped pass components still flow through here (skipping their work) so
// the channel drains and closes cleanly.
func (p *propagator) finish(cid int32) {
	for _, pr := range p.cond.preds(int(cid)) {
		if p.slot[pr] < 0 {
			continue
		}
		if atomic.AddInt32(&p.depCount[pr], -1) == 0 {
			p.ready <- pr
		}
	}
	if p.remaining.Add(-1) == 0 {
		close(p.ready)
	}
}

// propWorker is the per-goroutine state of a propagation pass: local stats
// (merged at the end), a reusable local work queue, and a budget-check
// throttle.
type propWorker struct {
	p   *propagator
	st  Stats
	q   []int32
	ops int
}

// budgetTick polls cancellation every 64 re-evaluations, enforces the time
// budget every 256, and samples the heap every 4096 (runtime.ReadMemStats
// is a stop-the-world pause, so it must stay rare). The sample is taken
// even without a memory budget: Stats.PeakHeapBytes is the Table 1 memory
// column, and propagation is where the win federations grow.
func (w *propWorker) budgetTick() error {
	w.ops++
	if w.ops&63 != 0 {
		return nil
	}
	s := w.p.s
	if err := s.checkCancel(); err != nil {
		return err
	}
	if w.ops&255 != 0 {
		return nil
	}
	if s.opts.TimeBudget > 0 && time.Since(s.t0) > s.opts.TimeBudget {
		return fmt.Errorf("%w: time budget %v", ErrBudget, s.opts.TimeBudget)
	}
	if w.ops&4095 == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > w.st.PeakHeapBytes {
			w.st.PeakHeapBytes = ms.HeapAlloc
		}
		if s.opts.MemBudget > 0 && w.st.PeakHeapBytes > s.opts.MemBudget {
			return fmt.Errorf("%w: memory budget %d bytes", ErrBudget, s.opts.MemBudget)
		}
	}
	return nil
}

// solveComp iterates one component's local fixpoint to convergence. The
// seeds and mailbox are drained into a sequential work queue (inReeval
// dedups: seed marks were set by scheduleReeval, mailbox entries are marked
// here); growth reschedules same-component predecessors locally and posts
// cross-component ones to their mailboxes.
func (w *propWorker) solveComp(cid int32) error {
	p, s := w.p, w.p.s
	q := w.q[:0]
	q = append(q, p.seeds[p.seedAt[cid]:p.seedAt[cid+1]]...)
	box := &p.boxes[p.slot[cid]]
	box.mu.Lock()
	inbox := box.ids
	box.mu.Unlock()
	for _, id := range inbox {
		if !s.inReeval[id] {
			s.inReeval[id] = true
			q = append(q, id)
		}
	}

	for head := 0; head < len(q); head++ {
		id := int(q[head])
		s.inReeval[id] = false
		n := s.nodes[id]
		if !n.explored || n.full {
			continue
		}
		if err := w.budgetTick(); err != nil {
			w.q = q
			return err
		}
		delta := s.reevalCore(n, &w.st)
		if delta == nil {
			continue
		}
		stamp := int(p.stampCtr.Add(1))
		w.st.Updates++
		s.applyDelta(n, delta, stamp)
		for _, pr := range n.preds {
			d := p.cond.compOf[pr]
			if d == cid {
				if !s.inReeval[pr] {
					s.inReeval[pr] = true
					q = append(q, int32(pr))
				}
			} else {
				w.st.CrossSCCMessages++
				p.boxes[p.slot[d]].push(int32(pr))
			}
		}
		// Only this worker may touch node 0's winning set while its
		// component runs, so the early check is race-free here.
		if id == 0 && p.checkEarly && s.initialDecided() {
			p.stopped.Store(true)
			break
		}
	}
	w.q = q
	return nil
}
