// Strongly connected components of the explored zone graph.
//
// The backward win-set fixpoint is a least fixpoint over equations whose
// dependency graph is exactly the game graph (a node's winning set depends
// only on its successors'), so condensing the graph into SCCs and solving
// the components bottom-up — every successor component fully converged
// before a component starts — reaches the global fixpoint in a single pass
// over the condensation DAG. Components with disjoint dependency cones can
// be solved concurrently; see propagate.go for the scheduler.
//
// Every propagation pass condenses the explored graph from scratch, so
// component ids always follow Tarjan's reverse topological order. A pass
// meets one component per node on a graph without cycles, so the
// condensation is flat: members grouped by component behind one offset
// array, and both cross-component edge directions in one arena behind two
// prefix sums. Condensing costs a fixed number of allocations, however
// many components the graph has.

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
// compOf maps each node to its component id. members lists the nodes
// grouped by component, each component's in the order Tarjan pops them:
// component c is members[start[c]:start[c+1]], and len(start) is the
// number of components plus one. Components are emitted in reverse
// topological order: every successor of a node lies in the same component
// or in one with a strictly smaller id. Component ids therefore directly
// give the bottom-up solving order for backward propagation. Every array
// is allocated once, at its final size, so the cost in allocations does
// not grow with the number of components.
func tarjanSCC(n int, deg func(u int) int, succ func(u, i int) int) (compOf, members, start []int32) {
	compOf = make([]int32, n)
	members = make([]int32, 0, n)
	start = make([]int32, 1, n+1)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = tarjanUndef
	}
	stack := make([]int32, 0, n)

	type frame struct {
		u  int32
		ei int32 // next successor index to visit
	}
	frames := make([]frame, 0, n)
	var next int32

	for root := 0; root < n; root++ {
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
			cid := int32(len(start) - 1)
			for {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[v] = false
				compOf[v] = cid
				members = append(members, v)
				if int(v) == u {
					break
				}
			}
			start = append(start, int32(len(members)))
		}
	}
	return compOf, members, start
}

// condensation is the SCC DAG of the explored zone graph plus the
// cross-component adjacency the parallel propagator schedules with, in
// flat arrays: no slice is allocated per component. Component ids are
// tarjanSCC's, so they come in reverse topological order; the propagator
// nonetheless schedules by dependency counting over succs/preds, not by id
// order.
type condensation struct {
	compOf  []int32
	members []int32 // component c is members[start[c]:start[c+1]]
	start   []int32
	// The distinct cross-component edges, both directions in one arena:
	// c's successors (the components c's nodes step into, which c depends
	// on) are arena[off[c]:off[c+1]], its predecessors (the components that
	// step into c and wait for it) are arena[off[nc]+pos[c]:off[nc]+pos[c+1]].
	off, pos []int32
	arena    []int32
}

// numComps returns the number of components.
func (c *condensation) numComps() int { return len(c.start) - 1 }

// comp returns the members of component cid.
func (c *condensation) comp(cid int) []int32 { return c.members[c.start[cid]:c.start[cid+1]] }

// succs returns the components cid's nodes step into.
func (c *condensation) succs(cid int) []int32 { return c.arena[c.off[cid]:c.off[cid+1]] }

// preds returns the components that step into cid, in ascending order.
func (c *condensation) preds(cid int) []int32 {
	base := c.off[len(c.off)-1]
	return c.arena[base+c.pos[cid] : base+c.pos[cid+1]]
}

// link fills off, pos and arena with the distinct cross-component edges,
// exactly counted before the one arena is allocated. Each component dedups
// its members' node successors with a last-seen marker; preds lists come
// out in ascending source order.
func (c *condensation) link(deg func(u int) int, succ func(u, i int) int) {
	nc := c.numComps()
	seen := make([]int32, nc)
	for i := range seen {
		seen[i] = -1
	}
	// scan counts cid's distinct cross successors, writing them to out when
	// out is non-nil; mark must differ from every earlier scan's mark.
	scan := func(cid int, mark int32, out []int32) int {
		k := 0
		for _, u := range c.comp(cid) {
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
	// predecessors and, after the prefix sum, pos[d] is where d's list
	// starts within the arena's second half.
	c.off = make([]int32, nc+1)
	c.pos = make([]int32, nc+1)
	for cid := 0; cid < nc; cid++ {
		c.off[cid+1] = c.off[cid] + int32(scan(cid, int32(cid), nil))
	}
	total := c.off[nc]
	c.arena = make([]int32, 2*total)
	for cid := 0; cid < nc; cid++ {
		out := c.succs(cid)
		scan(cid, int32(nc+cid), out)
		for _, d := range out {
			c.pos[d+1]++
		}
	}
	for d := 0; d < nc; d++ {
		c.pos[d+1] += c.pos[d]
	}
	// The scans are done, so seen becomes the fill cursor of every preds
	// list; sources in ascending order fill them in ascending order.
	copy(seen, c.pos[:nc])
	preds := c.arena[total:]
	for cid := 0; cid < nc; cid++ {
		for _, d := range c.succs(cid) {
			preds[seen[d]] = int32(cid)
			seen[d]++
		}
	}
}

// condense computes the SCC condensation of the currently explored graph
// from scratch: one Tarjan pass, then one linking scan of every edge.
// Frontier nodes that are interned but unexplored have no successors and
// become singleton sink components, which is harmless: they hold no winning
// zones until explored.
func (s *solver) condense() *condensation {
	defer func(t0 time.Time) { s.stats.CondenseDuration += time.Since(t0) }(time.Now())
	deg := func(u int) int { return len(s.nodes[u].succs) }
	succ := func(u, i int) int { return s.nodes[u].succs[i].target }
	compOf, members, start := tarjanSCC(len(s.nodes), deg, succ)
	c := &condensation{compOf: compOf, members: members, start: start}
	c.link(deg, succ)
	return c
}
