// Incremental re-solve of mutated systems over the base core skeleton.
//
// A test campaign solves the same purposes against K mutants, each of which
// differs from the conformant model by one mutation operator — so almost the
// entire zone graph of a mutant is isomorphic to the base graph the batch
// already explored. SolveDelta exploits this in two steps:
//
//  1. Delta replay (the ghost-overlay replay of overlay.go generalized from
//     "two layers of the same graph" to "the same graph with a dirty cone"):
//     the mutant's zone graph is rebuilt by walking the base skeleton's
//     frozen successor lists, in three tiers. A state is CLEAN when no
//     process sits on a dirty location (model.EditSet.DirtyLocations) and
//     the state exists in the base graph: its successors replay verbatim,
//     sharing the base graph's states, zones and transitions — no zone is
//     recomputed. A base-reachable state whose locations carry no
//     location-level edit is SPLICED per candidate transition: candidates
//     the edit cannot reach copy their base successor, a guard-only edit
//     whose cut of the state's zone is unchanged is proven invisible and
//     copied too, and only genuinely touched candidates are fired — the
//     state seeds the dirty cone only when its spliced list differs from
//     the base list. Everything else falls back to the symbolic explorer.
//  2. Win-seeded fixpoint: the backward fixpoint is seeded only from the
//     dirty cone — the predecessor closure of the dirty states. The cone is
//     pred-closed, so everything outside it forms a successor-closed
//     subgraph isomorphic to its base counterpart, where the cached base
//     fixpoint values are already final and are shared by reference.
//
// Both systems are explored under the pointwise maximum of the base and
// mutant extrapolation constants, so the clean region's zones agree exactly
// and — crucially for the E10 ablation — the cold fallback
// (Options.DisableIncremental) explores the mutant under the same merged
// maxima: graphs, node numbering, counts and winnability are identical with
// the ablation on or off, which pins the incremental path differentially.
//
// Edge-coverage purposes compose: SolveDeltaEdgeGhost splits the mutant's
// delta skeleton into the two-layer ghost overlay of the watched edge, so a
// mutant campaign pays neither a re-exploration nor a per-edge exploration.

package game

import (
	"fmt"
	"time"

	"tigatest/internal/dbm"
	"tigatest/internal/model"
	"tigatest/internal/symbolic"
	"tigatest/internal/tctl"
)

// deltaKey identifies one cached mutant skeleton: the merged extrapolation
// signature and the edit-set hash. The hash is the discriminating half —
// mutations that leave every clock constant unchanged share the base
// signature while their graphs differ.
type deltaKey struct {
	sig   string
	edits uint64
}

// fixKey identifies one cached base fixpoint: skeleton signature, purpose
// and game. Strict and cooperative solves of one purpose converge to
// different fixpoints, so the game is part of the key.
type fixKey struct {
	sig     string
	purpose string
	coop    bool
}

// deltaCacheCap bounds the retained mutant skeletons per batch: the strict
// and cooperative game plus every edge overlay of one mutant run back to
// back, so a handful of slots covers the interleaving a campaign (or the
// service serializing concurrent campaigns) produces.
const deltaCacheCap = 12

// fixpointCacheCap bounds the retained base fixpoints. A campaign analyzes
// each mutant against the plan's purposes in order, so the cache cycles
// through the purpose list once per mutant; it is sized to hold a typical
// plan's location purposes (edge purposes solve unseeded and need none).
const fixpointCacheCap = 32

// deltaSkeleton is a mutant's explored zone graph plus the replay metadata
// the win-seeded fixpoint needs. baseOf and dirty are nil when the skeleton
// was built by the cold (E10 ablation) path — the graph is then solved like
// any other skeleton.
type deltaSkeleton struct {
	sk *skeleton
	// baseOf maps each delta node to the core node carrying the same
	// symbolic state, -1 for states the base graph does not reach.
	baseOf []int32
	// dirty marks nodes whose successor list differs from their base
	// counterpart's (an edited transition enabled in either version, a
	// location-level edit in the vector, or a state only the mutant
	// reaches): the seeds of the dirty cone.
	dirty []bool
}

// baseFix is one fully converged base fixpoint, cached so that every mutant
// of a family pays the base solve once. nodes is indexed by core node id;
// stamp is the progress-measure high-water mark the cone re-solve resumes
// from (cone updates must stamp strictly later than every base update the
// synthesized strategy may descend into).
type baseFix struct {
	nodes []*node
	stamp int
}

// mergedMaxima returns the pointwise maximum of the two systems' per-clock
// extrapolation constants under the formula's clock atoms. Exploring both
// systems under the merged maxima makes their clean regions agree zone for
// zone (extrapolation is monotone in the constants and identical inputs
// give identical outputs), at the cost of a marginally finer base graph.
func mergedMaxima(base, mut *model.System, cc []model.ClockConstraint) []int {
	bm, mm := base.MaxConstants(cc), mut.MaxConstants(cc)
	out := make([]int, len(bm))
	for i := range bm {
		out[i] = bm[i]
		if i < len(mm) && mm[i] > out[i] {
			out[i] = mm[i]
		}
	}
	return out
}

// SolveDelta checks one reachability purpose against a mutated version of
// the batch system, re-exploring and re-solving only the mutant's dirty
// cone. es must be the model.Diff edit set of mut against the batch system
// (its compatibility gate guarantees the shared discrete skeleton this path
// relies on). Winnability, node and transition counts are identical to a
// cold solve of the mutant under the merged extrapolation maxima — which is
// exactly what the Options.DisableIncremental ablation runs instead.
func (b *Batch) SolveDelta(mut *model.System, es *model.EditSet, formula *tctl.Formula, coop bool) (*Result, error) {
	if formula.Objective != tctl.Reach {
		return nil, fmt.Errorf("game: batch solving supports reachability purposes only, got %s", formula.Objective)
	}
	if mut.NumClocks() != b.sys.NumClocks() || len(mut.Procs) != len(b.sys.Procs) {
		return nil, fmt.Errorf("game: delta solve: mutant does not match the batch core")
	}
	// A mutation can break the system outright (an output swap can strand a
	// receive without partners); reject it like Solve would, so callers can
	// skip the row instead of solving garbage.
	if err := mut.Validate(); err != nil {
		return nil, err
	}
	s := b.newSolver(mut, formula, coop)

	max := mergedMaxima(b.sys, mut, formula.ClockConstraints())
	dsk, _, hit, err := b.deltaSkeleton(mut, es, formula, max, &s.stats)
	if err != nil {
		return nil, err
	}
	if hit {
		s.stats.SkeletonHits++
	} else {
		s.stats.SkeletonMisses++
	}
	if dsk.dirty == nil {
		// Cold-built skeleton (the E10 ablation, or a cached one): the
		// ordinary full fixpoint. Same graph either way, so results match.
		return s.solveOnSkeleton(dsk.sk)
	}
	fix, err := b.baseFixpoint(formula, coop, max)
	if err != nil {
		return nil, err
	}
	return s.solveOnDelta(dsk, fix)
}

// SolveDeltaEdgeGhost solves an edge-coverage purpose against inst — a
// ghost-instrumented clone of the MUTANT mut (campaign.instrumentEdge) —
// by splitting the mutant's delta skeleton into the two-layer ghost overlay
// of the watched edge: the mutant is never explored beyond its dirty cone,
// and the clone is never explored at all. The overlay changes which nodes
// are goals, so the fixpoint runs unseeded (like SolveEdgeGhost); the delta
// machinery still eliminates the mutant's exploration cost, which dominates.
// Under Options.DisableIncremental the overlay is split from the cold
// merged-maxima mutant skeleton instead — identical graph, identical result.
func (b *Batch) SolveDeltaEdgeGhost(inst, mut *model.System, es *model.EditSet, formula *tctl.Formula, edgeID int, coop bool) (*Result, error) {
	if formula.Objective != tctl.Reach {
		return nil, fmt.Errorf("game: batch solving supports reachability purposes only, got %s", formula.Objective)
	}
	if inst.NumClocks() != mut.NumClocks() || len(inst.Procs) != len(mut.Procs) {
		return nil, fmt.Errorf("game: delta ghost overlay: instrumented system does not match the mutant")
	}
	s := b.newSolver(inst, formula, coop)

	max := mergedMaxima(b.sys, mut, formula.ClockConstraints())
	dsk, sig, hit, err := b.deltaSkeleton(mut, es, formula, max, &s.stats)
	if err != nil {
		return nil, err
	}
	if hit {
		s.stats.SkeletonCoreHits++
	} else {
		s.stats.SkeletonCoreMisses++
	}

	ov, err := b.overlay(dsk.sk, overlayKey{sig: sig, edge: edgeID, edits: es.Hash()}, &s.stats)
	if err != nil {
		return nil, err
	}
	return s.solveOnSkeleton(ov)
}

// deltaSkeleton returns the mutant's explored zone graph, replaying it over
// the core skeleton — or exploring it cold under the merged maxima when the
// E10 ablation is on. Cached per (signature, edit hash); the boolean
// reports a cache hit. Exploration and replay wall-clock are charged to st.
func (b *Batch) deltaSkeleton(mut *model.System, es *model.EditSet, formula *tctl.Formula, max []int, st *Stats) (*deltaSkeleton, string, bool, error) {
	sig := maxSignature(max)
	key := deltaKey{sig: sig, edits: es.Hash()}
	if dsk, ok := b.deltas.get(key); ok {
		return dsk, sig, true, nil
	}
	var dsk *deltaSkeleton
	if b.opts.DisableIncremental {
		sk, err := b.exploreSkeleton(mut, formula, max)
		if err != nil {
			return nil, sig, false, err
		}
		st.ExploreDuration += sk.buildDur
		dsk = &deltaSkeleton{sk: sk}
	} else {
		core, _, coreHit, err := b.coreSkeletonMax(formula, max)
		if err != nil {
			return nil, sig, false, err
		}
		if coreHit {
			st.SkeletonCoreHits++
		} else {
			st.SkeletonCoreMisses++
			st.ExploreDuration += core.buildDur
		}
		mutEx := symbolic.NewExplorer(mut, formula.ClockConstraints())
		if b.opts.DisableExtrapolation {
			mutEx.Max = nil
		} else {
			mutEx.Max = append([]int(nil), max...)
		}
		t0 := time.Now()
		dsk, err = deltaReplay(core, mutEx, es, b.sys, b.opts.MaxNodes, b.opts.Cancel)
		if err != nil {
			return nil, sig, false, err
		}
		dsk.sk.buildDur = time.Since(t0)
		st.OverlayDuration += dsk.sk.buildDur
	}
	b.deltas.put(key, dsk)
	return dsk, sig, false, nil
}

// deltaReplay rebuilds the mutant's zone graph over the core skeleton in
// three tiers. A node whose state the base graph reaches and whose
// location vector touches no dirty location replays the base node's
// frozen successor list verbatim (transitions, targets and zones shared,
// no symbolic work). A node the base reaches whose locations carry no
// location-level edit is SPLICED per candidate transition: candidates
// involving no changed edge and entering no changed location copy their
// base successor (enabledness, guard and zone provably agree), and only
// candidates touching the edit are fired by the mutant explorer — so a
// state at the source of an edited edge pays one fire, not a full
// re-exploration, and seeds the dirty cone only when its spliced list
// actually differs from the base list. Everything else — location-level
// edits in the vector, or a state only the mutant reaches — is explored
// with the mutant explorer. The replay drains in the core's own
// exploration order (depth-first or frontier rounds), so node numbering and
// counts match a cold exploration of the mutant exactly.
func deltaReplay(core *skeleton, mutEx *symbolic.Explorer, es *model.EditSet, base *model.System, maxNodes int, cancel <-chan struct{}) (*deltaSkeleton, error) {
	if core.stIndex == nil {
		core.stIndex = make(map[uint64][]int32, len(core.nodes))
		core.stHash = make([]uint64, len(core.nodes))
		for _, n := range core.nodes {
			h := n.st.HashKey()
			core.stHash[n.id] = h
			core.stIndex[h] = append(core.stIndex[h], int32(n.id))
		}
	}
	dirtyLoc := es.DirtyLocations(base, mutEx.Sys)
	chEdge := es.ChangedEdgeIDs()
	chLoc := es.ChangedLocations(base)
	guardOnly := es.GuardOnlyEdges()
	// clean gates the whole-list verbatim tier: no process on a location
	// from which the edit can change successors. locClean gates the splice
	// tier: the weaker "no location-level edit in the vector", under which
	// candidate transitions can still be judged one by one.
	clean := func(st *symbolic.State) bool {
		for p, l := range st.Locs {
			if dirtyLoc[p][l] {
				return false
			}
		}
		return true
	}
	locClean := func(st *symbolic.State) bool {
		for p, l := range st.Locs {
			if chLoc[p][l] {
				return false
			}
		}
		return true
	}
	// classify sorts a candidate into the splice's three outcomes: copy the
	// base entry verbatim (no participating edge edited, none entering an
	// edited location), judge a guard-only edit by its cut of the state's
	// zone (every edited participant changes nothing but its clock guard),
	// or fire with the mutant explorer.
	const (
		spliceCopy = iota
		spliceGuardOnly
		spliceFire
	)
	classify := func(t symbolic.Transition) int {
		r := spliceCopy
		for _, e := range t.Edges {
			if chLoc[e.Proc][e.Dst] {
				return spliceFire
			}
			if chEdge[e.ID] {
				if guardOnly[e.ID] == nil {
					return spliceFire
				}
				r = spliceGuardOnly
			}
		}
		return r
	}
	// guardCutUnchanged reports whether the candidate's clock guards cut the
	// state's zone identically in both systems. When they do, the edit is
	// invisible from this state: the enabled region, the fired successor
	// (guards are the only edited attribute and the intersection feeds every
	// later step of fire identically) and the backward pred region
	// (PredThroughEdge intersects with the source zone) all coincide, so the
	// base entry — present or absent — is exactly what a cold exploration of
	// the mutant would produce here. Both cuts land on owned scratch zones;
	// emptiness on both sides counts as unchanged (disabled in both).
	guardCutUnchanged := func(z *dbm.DBM, t symbolic.Transition) bool {
		zb, zm := z.Clone(), z.Clone()
		okb, okm := true, true
		for _, e := range t.Edges {
			be := guardOnly[e.ID]
			if be == nil {
				be = e
			}
			for _, c := range be.Guard.Clocks {
				if okb && !zb.ConstrainInPlace(c.I, c.J, c.Bound) {
					okb = false
				}
			}
			for _, c := range e.Guard.Clocks {
				if okm && !zm.ConstrainInPlace(c.I, c.J, c.Bound) {
					okm = false
				}
			}
		}
		eq := okb == okm && (!okb || zb.Equals(zm))
		zb.Release()
		zm.Release()
		return eq
	}

	cap0 := len(core.nodes) + 64
	var transitions int
	// Node structs come from one arena sized to the core graph — in-regime
	// mutants stay within a fraction of it, so per-node allocation is the
	// rare overflow case, not the common path.
	arena := make([]node, cap0)
	nodes := make([]*node, 0, cap0)
	baseOf := make([]int32, 0, cap0)
	dirty := make([]bool, 0, cap0)
	queue := make([]int, 0, cap0)
	index := make(map[uint64][]int32, cap0)
	// coreToDelta maps each core node to its delta counterpart (-1 until
	// interned). The clean replay resolves successor targets through it in
	// O(1): re-hashing a state walks its whole DBM, and the clean region is
	// nearly the entire graph, so per-transition hashing made the replay
	// cost almost as much as the exploration it replaces.
	coreToDelta := make([]int32, len(core.nodes))
	for i := range coreToDelta {
		coreToDelta[i] = -1
	}
	// add appends the delta node for st under the content hash h. base
	// names the core node carrying the same state (-1 when only the mutant
	// reaches it), whose state and zone are then shared.
	add := func(st *symbolic.State, base int32, h uint64) (int, error) {
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
		var n *node
		if id := len(nodes); id < len(arena) {
			n = &arena[id]
		} else {
			n = new(node)
		}
		if base >= 0 {
			o := core.nodes[base]
			*n = node{id: len(nodes), st: o.st, zoneFed: o.zoneFed, explored: true}
			coreToDelta[base] = int32(n.id)
			// The delta graph is near-isomorphic to the core, so the base
			// counterpart's degrees are the right capacities: piecemeal
			// append growth here dominated the replay's allocation bill.
			if len(o.preds) > 0 {
				n.preds = make([]int, 0, len(o.preds))
			}
			if len(o.succs) > 0 {
				n.succs = make([]succRef, 0, len(o.succs))
			}
		} else {
			*n = node{id: len(nodes), st: st, zoneFed: dbm.FedFromDBM(st.Zone.Dim(), st.Zone), explored: true}
		}
		index[h] = append(index[h], int32(n.id))
		nodes = append(nodes, n)
		baseOf = append(baseOf, base)
		dirty = append(dirty, false)
		queue = append(queue, n.id)
		return n.id, nil
	}
	// internCore finds or adds the delta node for a state named by its core
	// id — the only lookup the clean replay performs. Every delta node that
	// shares a core state registers in coreToDelta when added (whichever
	// path adds it first), so the mapping is total over interned states.
	internCore := func(cid int) (int, error) {
		if id := coreToDelta[cid]; id >= 0 {
			return int(id), nil
		}
		return add(core.nodes[cid].st, int32(cid), core.stHash[cid])
	}
	// intern finds or adds the delta node for a state built by the mutant
	// explorer. owned marks a zone freshly built by the explorer, released
	// when the state turns out to be a duplicate or to exist in the core
	// (mirroring lookupOrAdd); core states are shared and never released.
	intern := func(st *symbolic.State, owned bool) (int, error) {
		h := st.HashKey()
		for _, id := range index[h] {
			if nodes[id].st.EqualTo(st) {
				if owned {
					st.Zone.Release()
				}
				return int(id), nil
			}
		}
		base := int32(-1)
		for _, cid := range core.stIndex[h] {
			if core.nodes[cid].st.EqualTo(st) {
				base = cid
				break
			}
		}
		if base >= 0 && owned {
			st.Zone.Release()
		}
		return add(st, base, h)
	}
	// findBase locates the base successor fired by the same participating
	// edges (matched by global ID — unique per state, so the scan needs no
	// order bookkeeping); -1 means the candidate was disabled in the base.
	findBase := func(o *node, t symbolic.Transition) int {
		for j := range o.succs {
			be := o.succs[j].trans.Edges
			if len(be) != len(t.Edges) {
				continue
			}
			match := true
			for i := range be {
				if be[i].ID != t.Edges[i].ID {
					match = false
					break
				}
			}
			if match {
				return j
			}
		}
		return -1
	}
	// The candidate transitions of a state — and their classification
	// against the edit — depend only on its location vector (enumeration
	// walks out-edges and sync pairs under the committed filter; zones and
	// variables only matter when firing). States sharing a vector therefore
	// share one memoized template list, so the per-state replay never
	// re-scans edges or re-classifies candidates.
	type candTmpl struct {
		t   symbolic.Transition
		cls int
	}
	cands := map[string][]candTmpl{}
	var keyBuf []byte
	candsFor := func(st *symbolic.State) []candTmpl {
		keyBuf = keyBuf[:0]
		for _, l := range st.Locs {
			keyBuf = append(keyBuf, byte(l), byte(l>>8))
		}
		if c, ok := cands[string(keyBuf)]; ok {
			return c
		}
		var list []candTmpl
		mutEx.Candidates(st, func(t symbolic.Transition) error {
			t.Edges = append([]*model.Edge(nil), t.Edges...)
			list = append(list, candTmpl{t: t, cls: classify(t)})
			return nil
		})
		cands[string(keyBuf)] = list
		return list
	}
	// splice rebuilds one node's successor list candidate by candidate:
	// untouched candidates copy their base entry (absence there means
	// disabled in both systems — same state, same zone, same guards), a
	// guard-only edit whose cut of this state's zone is unchanged is
	// likewise copied, and only candidates the edit genuinely reaches are
	// fired by the mutant explorer. The node seeds the dirty cone only when
	// the result differs from the base list: a widened guard whose extra
	// band this state's zone never enters leaves the successors
	// byte-identical, and the fixpoint then costs nothing.
	splice := func(id, b int) error {
		n := nodes[id]
		o := core.nodes[b]
		copied := 0
		tmpls := candsFor(n.st)
		for i := range tmpls {
			t := tmpls[i].t
			if c := tmpls[i].cls; c == spliceCopy ||
				(c == spliceGuardOnly && guardCutUnchanged(n.st.Zone, t)) {
				if j := findBase(o, t); j >= 0 {
					sc := &o.succs[j]
					tid, err := internCore(sc.target)
					if err != nil {
						return err
					}
					n.succs = append(n.succs, succRef{trans: sc.trans, target: tid})
					nodes[tid].addPred(id)
					transitions++
					copied++
				}
				continue
			}
			succ, err := mutEx.Fire(n.st, t)
			if err != nil {
				return err
			}
			if succ == nil {
				continue
			}
			// An enabled edited transition always seeds the cone: even when
			// the successor state coincides with the base one, the edited
			// guard changes the backward pred region through this move.
			dirty[id] = true
			tid, err := intern(succ.State, true)
			if err != nil {
				return err
			}
			n.succs = append(n.succs, succRef{trans: succ.Trans, target: tid})
			nodes[tid].addPred(id)
			transitions++
		}
		if copied != len(o.succs) {
			// Some base successor was not replayed: an edited transition was
			// enabled in the base (dropped, narrowed or redirected here).
			dirty[id] = true
		}
		return nil
	}
	wire := func(id int) error {
		n := nodes[id]
		if b := baseOf[id]; b >= 0 {
			if clean(n.st) {
				// Clean replay. Sources of every changed edge — including
				// all sync partners — sit on dirty locations, so the base
				// successor list is, transition for transition, what the
				// mutant explorer would compute here (same edge order, same
				// zones under the merged maxima).
				o := core.nodes[b]
				for i := range o.succs {
					sc := &o.succs[i]
					tid, err := internCore(sc.target)
					if err != nil {
						return err
					}
					n.succs = append(n.succs, succRef{trans: sc.trans, target: tid})
					nodes[tid].addPred(id)
					transitions++
				}
				return nil
			}
			if locClean(n.st) {
				return splice(id, int(b))
			}
		}
		dirty[id] = true
		tmpls := candsFor(n.st)
		for i := range tmpls {
			succ, err := mutEx.Fire(n.st, tmpls[i].t)
			if err != nil {
				return err
			}
			if succ == nil {
				continue
			}
			tid, err := intern(succ.State, true)
			if err != nil {
				return err
			}
			n.succs = append(n.succs, succRef{trans: succ.Trans, target: tid})
			nodes[tid].addPred(id)
			transitions++
		}
		return nil
	}

	init, err := mutEx.Initial()
	if err != nil {
		return nil, err
	}
	if _, err := intern(init, true); err != nil {
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
	return &deltaSkeleton{
		sk:     &skeleton{ex: mutEx, nodes: nodes, transitions: transitions, rounds: core.rounds},
		baseOf: baseOf,
		dirty:  dirty,
	}, nil
}

// Prepare warms the substrate a family of SolveDelta calls shares: the
// core skeleton under the purpose's base extrapolation maxima and the
// fully converged base fixpoint whose values the cone re-solve copies for
// every untouched node. Campaign planning calls it once per (purpose,
// cooperation) pair before the mutant loop, so the first mutant row is not
// charged for the family's shared work — a signature-preserving mutant's
// merged maxima equal the base maxima, which is exactly the key this
// warms. Purposes the delta path does not serve, and batches with
// incremental solving disabled, make it a no-op.
func (b *Batch) Prepare(formula *tctl.Formula, coop bool) error {
	if formula.Objective != tctl.Reach || b.opts.DisableIncremental {
		return nil
	}
	max := b.sys.MaxConstants(formula.ClockConstraints())
	_, err := b.baseFixpoint(formula, coop, max)
	return err
}

// baseFixpoint returns the fully converged base fixpoint for the purpose
// over the merged-maxima core skeleton, solving and caching it on first
// use. Early termination is forced off for this internal solve: the cone
// re-solve copies these values as FINAL for every untouched node, so they
// must be the complete least fixpoint, not a prefix of it.
func (b *Batch) baseFixpoint(formula *tctl.Formula, coop bool, max []int) (*baseFix, error) {
	key := fixKey{sig: maxSignature(max), purpose: formula.String(), coop: coop}
	if f, ok := b.fixes.get(key); ok {
		return f, nil
	}
	core, _, _, err := b.coreSkeletonMax(formula, max)
	if err != nil {
		return nil, err
	}
	s := b.newSolver(b.sys, formula, coop)
	s.opts.EarlyTermination = false
	if _, err := s.solveOnSkeleton(core); err != nil {
		return nil, err
	}
	f := &baseFix{nodes: s.nodes, stamp: s.stamp}
	b.fixes.put(key, f)
	return f, nil
}

// solveOnDelta runs the backward fixpoint over a replayed mutant skeleton,
// seeded only from the dirty cone — the predecessor closure of the nodes
// the mutant explorer (re)explored. The cone is pred-closed by construction,
// so its complement is successor-closed and isomorphic to its base
// counterpart: win sets there depend only on each other and are final in
// the cached base fixpoint, whose goal/win/delta federations are shared by
// reference (they are never mutated again — only cone nodes re-evaluate,
// and growth propagates along predecessors, which stay inside the cone).
// The progress stamp resumes from the base fixpoint's high-water mark so
// strategy synthesis sees one globally consistent progress measure.
func (s *solver) solveOnDelta(dsk *deltaSkeleton, fix *baseFix) (*Result, error) {
	sk := dsk.sk
	s.ex = sk.ex
	s.nodes = make([]*node, len(sk.nodes))
	s.inReeval = make([]bool, len(sk.nodes))

	cone := make([]bool, len(sk.nodes))
	var stack []int
	for id := range dsk.dirty {
		if dsk.dirty[id] {
			cone[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range sk.nodes[id].preds {
			if !cone[p] {
				cone[p] = true
				stack = append(stack, p)
			}
		}
	}

	arena := make([]node, len(sk.nodes))
	for i, o := range sk.nodes {
		if i&4095 == 0 {
			if err := s.checkCancel(); err != nil {
				return nil, err
			}
		}
		n := &arena[i]
		if !cone[i] {
			f := fix.nodes[dsk.baseOf[i]]
			*n = node{
				id:       i,
				st:       o.st,
				zoneFed:  o.zoneFed,
				goal:     f.goal,
				succs:    o.succs,
				preds:    o.preds,
				win:      f.win,
				deltas:   f.deltas,
				full:     f.full,
				explored: true,
			}
		} else {
			var goal *dbm.Federation
			if b := dsk.baseOf[i]; b >= 0 {
				// The state is shared with its core counterpart, so the base
				// fixpoint's goal federation is this node's goal, by
				// reference — goal sets are only ever read during a solve.
				// Only mutant-fresh states pay a formula evaluation.
				goal = fix.nodes[b].goal
			} else {
				var err error
				if goal, err = s.nodeGoal(o.st, o.zoneFed); err != nil {
					return nil, err
				}
			}
			*n = node{
				id:       i,
				st:       o.st,
				zoneFed:  o.zoneFed,
				goal:     goal,
				succs:    o.succs,
				preds:    o.preds,
				win:      dbm.NewFederation(o.st.Zone.Dim()),
				explored: true,
			}
		}
		s.nodes[i] = n
	}
	s.stats.Nodes = len(s.nodes)
	s.stats.Transitions = sk.transitions
	s.stamp = fix.stamp
	// An empty cone (the edit touches nothing reachable) leaves the base
	// fixpoint as the answer.
	if err := s.runWorklist(cone); err != nil {
		return nil, err
	}
	return s.finishResult()
}
