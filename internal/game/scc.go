// Strongly connected components of the explored zone graph.
//
// The backward win-set fixpoint is a least fixpoint over equations whose
// dependency graph is exactly the game graph (a node's winning set depends
// only on its successors'), so condensing the graph into SCCs and solving
// the components bottom-up — every successor component fully converged
// before a component starts — reaches the global fixpoint in a single pass
// over the condensation DAG. Components with disjoint dependency cones can
// be solved concurrently; see propagate.go for the scheduler.

package game

import "time"

// tarjanUndef marks an unvisited node in tarjanSCC.
const tarjanUndef = int32(-1)

// tarjanSCC computes the strongly connected components of a directed graph
// with nodes 0..n-1, given by out-degree and indexed successor access.
// It is the classic Tarjan algorithm made iterative with an explicit frame
// stack (zone graphs routinely have paths far deeper than the goroutine
// stack budget).
//
// compOf maps each node to its component id; comps lists the members of
// every component. Components are emitted in reverse topological order:
// every successor of a node lies in the same component or in one with a
// strictly smaller id. Component ids therefore directly give the bottom-up
// solving order for backward propagation.
func tarjanSCC(n int, deg func(u int) int, succ func(u, i int) int) (compOf []int32, comps [][]int32) {
	return tarjanSCCRestricted(n, nil, nil, deg, succ)
}

// tarjanSCCRestricted runs Tarjan over the subgraph induced by the nodes
// with in[v] true, visiting roots in the given order; edges leaving the
// induced subgraph are ignored. A nil `in` (with nil roots) means the whole
// graph, 0..n-1. compOf entries of excluded nodes are left as tarjanUndef.
//
// The restriction is what makes the incremental update sound and cheap: the
// caller guarantees that every mutual-reachability path among the included
// nodes stays inside the included set (see updateCondensation), so the
// induced subgraph has exactly the same components as the full graph does
// on those nodes.
func tarjanSCCRestricted(n int, roots []int32, in []bool, deg func(u int) int, succ func(u, i int) int) (compOf []int32, comps [][]int32) {
	compOf = make([]int32, n)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = tarjanUndef
		compOf[i] = tarjanUndef
	}
	stack := make([]int32, 0, n)

	type frame struct {
		u  int32
		ei int32 // next successor index to visit
	}
	var frames []frame
	var next int32

	nroots := n
	if roots != nil {
		nroots = len(roots)
	}
	for ri := 0; ri < nroots; ri++ {
		root := ri
		if roots != nil {
			root = int(roots[ri])
		}
		if index[root] != tarjanUndef {
			continue
		}
		index[root], low[root] = next, next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		frames = append(frames[:0], frame{u: int32(root)})

		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			u := int(fr.u)
			if int(fr.ei) < deg(u) {
				v := succ(u, int(fr.ei))
				fr.ei++
				if in != nil && !in[v] {
					continue
				}
				if index[v] == tarjanUndef {
					index[v], low[v] = next, next
					next++
					stack = append(stack, int32(v))
					onStack[v] = true
					frames = append(frames, frame{u: int32(v)})
				} else if onStack[v] && index[v] < low[u] {
					low[u] = index[v]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := int(frames[len(frames)-1].u); low[u] < low[p] {
					low[p] = low[u]
				}
			}
			if low[u] != index[u] {
				continue
			}
			cid := int32(len(comps))
			var comp []int32
			for {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[v] = false
				compOf[v] = cid
				comp = append(comp, v)
				if int(v) == u {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	return compOf, comps
}

// condensation is the SCC DAG of the explored zone graph plus the
// cross-component adjacency the parallel propagator schedules with.
//
// Component ids carry NO ordering guarantee: a freshly built condensation
// numbers components in reverse topological order (tarjanSCC), but an
// incremental update (updateCondensation) renumbers densely with surviving
// components first, which is not topological. The propagator schedules by
// dependency counting over succs/preds, never by id order, so any dense
// numbering is valid.
type condensation struct {
	compOf []int32
	comps  [][]int32
	// succs/preds hold the distinct cross-component edges: succs[c] are the
	// components c's nodes step into (c depends on them), preds[c] the
	// components that step into c (they wait for c).
	succs [][]int32
	preds [][]int32
}

// updateCondensation revises prev — the condensation of this graph as of
// oldN nodes — to cover the current graph of n nodes, recomputing only the
// cone of influence of the inserted edges. Nodes oldN..n-1 are new, and
// inserted lists every edge added to (or incident to) an old node; edges
// wholly among new nodes ride along with the new nodes and need no entry.
// The graph only grows: no edge is ever removed or redirected.
//
// Soundness: a cycle that uses no inserted edge and no new node existed
// before and lies inside one old component, so only components on a
// potential new cycle can change membership. Every such component sits on
// an old DAG path from the target component of some inserted edge (a
// "head" — where the cycle re-enters the old region) to the source
// component of some inserted edge (a "tail" — where it leaves), so the
// affected set is (descendants of heads) ∩ (ancestors of tails) over the
// old DAG. The members of affected components plus all new nodes form the
// restricted region; mutual-reachability paths among region nodes cannot
// leave the region (a leaving path would put an unaffected component on a
// new cycle), so a Tarjan pass restricted to the region — ignoring edges
// that leave it — recomputes exactly the changed components.
func updateCondensation(prev *condensation, oldN, n int, deg func(u int) int, succ func(u, i int) int, inserted [][2]int32) *condensation {
	oldComps := len(prev.comps)

	// Affected components: (desc of inserted heads) ∩ (anc of inserted
	// tails).
	desc := make([]bool, oldComps)
	anc := make([]bool, oldComps)
	var queue []int32
	mark := func(marks []bool, adj [][]int32, seeds []int32) {
		queue = queue[:0]
		for _, c := range seeds {
			if !marks[c] {
				marks[c] = true
				queue = append(queue, c)
			}
		}
		for len(queue) > 0 {
			c := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, d := range adj[c] {
				if !marks[d] {
					marks[d] = true
					queue = append(queue, d)
				}
			}
		}
	}
	var heads, tails []int32
	for _, e := range inserted {
		if int(e[1]) < oldN {
			heads = append(heads, prev.compOf[e[1]])
		}
		if int(e[0]) < oldN {
			tails = append(tails, prev.compOf[e[0]])
		}
	}
	mark(desc, prev.succs, heads)
	mark(anc, prev.preds, tails)
	affected := make([]bool, oldComps)
	for c := range affected {
		affected[c] = desc[c] && anc[c]
	}

	// Restricted region: members of affected components plus new nodes.
	inRegion := make([]bool, n)
	var region []int32
	for c := 0; c < oldComps; c++ {
		if !affected[c] {
			continue
		}
		for _, v := range prev.comps[c] {
			inRegion[v] = true
			region = append(region, v)
		}
	}
	for v := oldN; v < n; v++ {
		inRegion[v] = true
		region = append(region, int32(v))
	}

	// Dense renumbering: surviving components first (keeping their member
	// slices — they are never mutated after construction, so sharing is
	// safe), recomputed components appended.
	c := &condensation{compOf: make([]int32, n)}
	newOf := make([]int32, oldComps) // old id -> new id, -1 for affected
	for oc := 0; oc < oldComps; oc++ {
		if affected[oc] {
			newOf[oc] = -1
			continue
		}
		id := int32(len(c.comps))
		newOf[oc] = id
		c.comps = append(c.comps, prev.comps[oc])
		for _, v := range prev.comps[oc] {
			c.compOf[v] = id
		}
	}
	survivors := len(c.comps)
	var local [][]int32
	if len(region) > 0 { // a nil region would mean "all nodes" to Tarjan
		_, local = tarjanSCCRestricted(n, region, inRegion, deg, succ)
	}
	for _, lc := range local {
		id := int32(len(c.comps))
		c.comps = append(c.comps, lc)
		for _, v := range lc {
			c.compOf[v] = id
		}
	}

	// Cross-edge recompute set: recomputed components scan their members'
	// node successors from scratch; so do survivors whose old cross edges
	// pointed into the affected set (those targets were renumbered
	// arbitrarily, possibly split) and the source components of edited
	// edges (their successor set itself changed). Every other survivor
	// keeps its old cross edges remapped through the renumbering.
	recompute := make([]bool, len(c.comps))
	for id := survivors; id < len(c.comps); id++ {
		recompute[id] = true
	}
	for oc := 0; oc < oldComps; oc++ {
		if newOf[oc] < 0 {
			continue
		}
		for _, d := range prev.succs[oc] {
			if affected[d] {
				recompute[newOf[oc]] = true
				break
			}
		}
	}
	for _, e := range inserted {
		recompute[c.compOf[e[0]]] = true
	}

	from := make([]int32, len(c.comps)) // kept old list per component, -1 to rescan
	for id := range from {
		from[id] = -1
	}
	for oc := 0; oc < oldComps; oc++ {
		if nc := newOf[oc]; nc >= 0 && !recompute[nc] {
			from[nc] = int32(oc)
		}
	}
	c.link(deg, succ, prev, from, newOf)
	return c
}

// link fills c.succs and c.preds, the distinct cross-component edges,
// carving every list out of one exactly counted arena. A component with
// from[cid] >= 0 keeps the successor list of prev's component from[cid],
// renumbered through newOf (d is a survivor, else cid would have been
// rescanned); every other component, and all of them when from is nil,
// dedups its members' node successors with a last-seen marker. preds lists
// come out in ascending source order.
func (c *condensation) link(deg func(u int) int, succ func(u, i int) int, prev *condensation, from, newOf []int32) {
	nc := len(c.comps)
	kept := func(cid int) ([]int32, bool) {
		if from == nil || from[cid] < 0 {
			return nil, false
		}
		return prev.succs[from[cid]], true
	}
	seen := make([]int32, nc)
	for i := range seen {
		seen[i] = -1
	}
	// scan counts cid's distinct cross successors, writing them to out when
	// out is non-nil; mark must differ from every earlier scan's mark.
	scan := func(cid int, mark int32, out []int32) int {
		k := 0
		for _, u := range c.comps[cid] {
			du := deg(int(u))
			for i := 0; i < du; i++ {
				d := c.compOf[succ(int(u), i)]
				if int(d) == cid || seen[d] == mark {
					continue
				}
				seen[d] = mark
				if out != nil {
					out[k] = d
				}
				k++
			}
		}
		return k
	}

	// off[cid] is where cid's successor list starts; pos[d+1] counts d's
	// predecessors and, after the prefix sum, pos[d] is where d's list starts.
	off := make([]int32, nc+1)
	pos := make([]int32, nc+1)
	for cid := 0; cid < nc; cid++ {
		k := 0
		if old, ok := kept(cid); ok {
			k = len(old)
		} else {
			k = scan(cid, int32(cid), nil)
		}
		off[cid+1] = off[cid] + int32(k)
	}
	total := off[nc]
	arena := make([]int32, 2*total)
	c.succs = make([][]int32, nc)
	for cid := 0; cid < nc; cid++ {
		lo, hi := off[cid], off[cid+1]
		if lo == hi {
			continue
		}
		out := arena[lo:hi:hi]
		if old, ok := kept(cid); ok {
			for i, d := range old {
				out[i] = newOf[d]
			}
		} else {
			scan(cid, int32(nc+cid), out)
		}
		c.succs[cid] = out
		for _, d := range out {
			pos[d+1]++
		}
	}
	for d := 0; d < nc; d++ {
		pos[d+1] += pos[d]
	}
	c.preds = make([][]int32, nc)
	preds := arena[total:]
	for d := 0; d < nc; d++ {
		if lo, hi := pos[d], pos[d+1]; lo < hi {
			c.preds[d] = preds[lo:lo:hi]
		}
	}
	for cid, ds := range c.succs {
		for _, d := range ds {
			c.preds[d] = append(c.preds[d], int32(cid))
		}
	}
}

// condense computes the SCC condensation of the currently explored graph.
// Frontier nodes that are interned but unexplored have no successors and
// become singleton sink components, which is harmless: they hold no winning
// zones until explored.
//
// Nodes and edges are only ever added, so after the first call the
// previous condensation is updated incrementally from the edge log the
// solver keeps (condEdits: edges appended to nodes that predate the last
// condensation — the frontier explored since), recomputing only the cone
// of influence of the new edges instead of re-running Tarjan over the
// whole graph (counted in Stats.CondensationIncrementals; disabled by
// Options.DisableIncremental, the E10 ablation).
func (s *solver) condense() *condensation {
	n := len(s.nodes)
	defer func(t0 time.Time) { s.stats.CondenseDuration += time.Since(t0) }(time.Now())
	deg := func(u int) int { return len(s.nodes[u].succs) }
	succ := func(u, i int) int { return s.nodes[u].succs[i].target }
	var c *condensation
	if s.lastCond != nil && !s.opts.DisableIncremental {
		c = updateCondensation(s.lastCond, s.lastCondNodes, n, deg, succ, s.condEdits)
		s.stats.CondensationIncrementals++
	} else {
		compOf, comps := tarjanSCC(n, deg, succ)
		c = &condensation{compOf: compOf, comps: comps}
		c.link(deg, succ, nil, nil, nil)
	}
	s.condEdits = s.condEdits[:0]
	s.lastCond, s.lastCondNodes = c, n
	return c
}

// logCondEdit records an appended edge for the next incremental
// condensation update. Edges wholly among nodes added since the last
// condensation ride along as new nodes and need no entry; before the first
// condensation there is nothing to update and nothing is logged.
func (s *solver) logCondEdit(src, dst int) {
	if s.lastCond == nil || s.opts.DisableIncremental {
		return
	}
	if src >= s.lastCondNodes && dst >= s.lastCondNodes {
		return
	}
	s.condEdits = append(s.condEdits, [2]int32{int32(src), int32(dst)})
}
