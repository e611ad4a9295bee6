// Ghost-overlay solving: edge-coverage purposes without re-exploration.
//
// An edge-coverage goal is solved on a ghost-instrumented clone of the
// specification — one extra 0/1 variable, assigned by the watched edge,
// with the purpose "ghost == 1". That clone's zone graph is exactly two
// layers of the un-instrumented graph: the ghost never appears in a guard,
// so enabledness, zones and extrapolation are untouched; the only change
// is that transitions containing the watched edge cross from the ghost==0
// layer to the ghost==1 layer, which stays absorbing. SolveEdgeGhost
// exploits this: instead of exploring a fresh clone per edge (firing every
// edge, canonicalizing and extrapolating zones all over again), it splits
// the batch's already-explored core skeleton into the two-layer overlay
// graph by pure graph replay — no zone is ever recomputed — and runs the
// ordinary per-purpose backward fixpoint on it.
//
// The replay drains in the order the core skeleton was explored in
// (depth-first on one worker, frontier rounds on a pool), so node
// numbering, successor/predecessor order, and node/transition counts are
// identical to what exploring the instrumented clone would have produced —
// the solve is the same computation on the same graph, byte-for-byte, minus
// the exploration cost.

package game

import (
	"fmt"
	"time"

	"tigatest/internal/model"
	"tigatest/internal/symbolic"
	"tigatest/internal/tctl"
)

// overlayKey identifies one cached overlay skeleton: the core signature it
// was split from, the watched edge, and — for overlays split from a mutant
// delta skeleton (Batch.SolveDeltaEdgeGhost) — the mutant's edit-set hash.
// The hash matters even though the signature alone keys the underlying
// graphs map: a mutation that leaves every clock constant unchanged (edge
// retargeting, output swapping) shares the base signature while its overlay
// graph differs. edits is 0 for overlays over the un-mutated core.
type overlayKey struct {
	sig   string
	edge  int
	edits uint64
}

// SolveEdgeGhost solves an edge-coverage purpose against inst — a
// ghost-instrumented clone of the batch system whose appended 0/1 variable
// is assigned by the edge with the given global id — without exploring
// inst: the un-instrumented core skeleton (shared with every other purpose
// of the same extrapolation signature) is split into the two-layer ghost
// overlay and the backward fixpoint runs on that. The result, including
// node numbering and statistics, is identical to NewBatch(inst).Solve(f,
// coop) at the same worker count; Stats additionally reports the core
// skeleton reuse in SkeletonCoreHits/SkeletonCoreMisses, while
// SkeletonHits/SkeletonMisses track the per-edge overlay (shared between
// the strict and cooperative solve of one goal).
//
// inst must differ from the batch system only by the appended variable and
// the watched edge's extra assignment (campaign.instrumentEdge's
// construction); clocks, locations, channels and edge ids must match.
func (b *Batch) SolveEdgeGhost(inst *model.System, formula *tctl.Formula, edgeID int, coop bool) (*Result, error) {
	if formula.Objective != tctl.Reach {
		return nil, fmt.Errorf("game: batch solving supports reachability purposes only, got %s", formula.Objective)
	}
	if inst.NumClocks() != b.sys.NumClocks() || len(inst.Procs) != len(b.sys.Procs) {
		return nil, fmt.Errorf("game: ghost overlay: instrumented system does not match the batch core")
	}
	s := b.newSolver(inst, formula, coop)

	core, sig, coreHit, err := b.coreSkeleton(formula)
	if err != nil {
		return nil, err
	}
	if coreHit {
		s.stats.SkeletonCoreHits++
	} else {
		s.stats.SkeletonCoreMisses++
		s.stats.ExploreDuration += core.buildDur
	}

	ov, err := b.overlay(core, overlayKey{sig: sig, edge: edgeID}, &s.stats)
	if err != nil {
		return nil, err
	}
	return s.solveOnSkeleton(ov)
}

// overlay returns the cached ghost overlay under key, splitting it from sk
// on a miss. The overlay hit/miss counters and the replay time go to st.
func (b *Batch) overlay(sk *skeleton, key overlayKey, st *Stats) (*skeleton, error) {
	if ov, ok := b.overlays.get(key); ok {
		st.SkeletonHits++
		return ov, nil
	}
	st.SkeletonMisses++
	t0 := time.Now()
	ov, err := ghostOverlay(sk, key.edge, b.opts.MaxNodes, b.opts.Cancel)
	if err != nil {
		return nil, err
	}
	ov.buildDur = time.Since(t0)
	st.OverlayDuration += ov.buildDur
	b.overlays.put(key, ov)
	return ov, nil
}

// ghostOverlay replays the core skeleton into the two-layer overlay graph
// of the watched edge. Layer 0 holds the states reachable before the edge
// ever fired, layer 1 the states reachable after — only the latter are
// split, so the overlay has at most |core| + |reachable-after| nodes.
// States carry the appended ghost value (symbolic.State.WithOverlayVar),
// so goal evaluation, strategy rendering and trace formatting against the
// instrumented system work unchanged; zones and location vectors are
// shared with the core, never copied.
//
// The replay drains in the core's own exploration order, so node ids match
// what exploring the instrumented clone at the same worker count would have
// assigned. cancel aborts the replay with ErrCanceled (polled every 4096
// added nodes).
func ghostOverlay(core *skeleton, edgeID int, maxNodes int, cancel <-chan struct{}) (*skeleton, error) {
	watched := func(t *symbolic.Transition) bool {
		for _, e := range t.Edges {
			if e.ID == edgeID {
				return true
			}
		}
		return false
	}

	// ids maps (core node, layer) to the overlay id; skelOf/layerOf invert.
	ids := make([][2]int, len(core.nodes))
	for i := range ids {
		ids[i] = [2]int{-1, -1}
	}
	var (
		nodes       []*node
		skelOf      []int
		layerOf     []int8
		queue       []int
		transitions int
	)
	add := func(skel, layer int) (int, error) {
		if maxNodes > 0 && len(nodes)+1 > maxNodes {
			return 0, budgetNodesErr(maxNodes)
		}
		if cancel != nil && len(nodes)&4095 == 0 {
			select {
			case <-cancel:
				return 0, ErrCanceled
			default:
			}
		}
		o := core.nodes[skel]
		n := &node{
			id:       len(nodes),
			st:       o.st.WithOverlayVar(int32(layer)),
			zoneFed:  o.zoneFed,
			explored: true,
		}
		ids[skel][layer] = n.id
		nodes = append(nodes, n)
		skelOf = append(skelOf, skel)
		layerOf = append(layerOf, int8(layer))
		queue = append(queue, n.id)
		return n.id, nil
	}
	// wire replays the exploration of one overlay node from its core
	// counterpart's frozen successor list, preserving successor order (and
	// therefore predecessor order and numbering of newly found nodes).
	wire := func(id int) error {
		n := nodes[id]
		o := core.nodes[skelOf[id]]
		for i := range o.succs {
			sc := &o.succs[i]
			layer := int(layerOf[id])
			if layer == 0 && watched(&sc.trans) {
				layer = 1
			}
			tid := ids[sc.target][layer]
			if tid < 0 {
				var err error
				if tid, err = add(sc.target, layer); err != nil {
					return err
				}
			}
			n.succs = append(n.succs, succRef{trans: sc.trans, target: tid})
			nodes[tid].addPred(id)
			transitions++
		}
		return nil
	}

	if _, err := add(0, 0); err != nil {
		return nil, err
	}
	if err := drainQueue(&queue, core.rounds, func(ids []int) error {
		for _, id := range ids {
			if err := wire(id); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &skeleton{ex: core.ex, nodes: nodes, transitions: transitions, rounds: core.rounds, layers: layerOf}, nil
}
