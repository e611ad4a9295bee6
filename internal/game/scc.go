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
// component ids always follow Tarjan's reverse topological order.

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
	compOf = make([]int32, n)
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
	var frames []frame
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
// Component ids are tarjanSCC's, so they come in reverse topological
// order; the propagator nonetheless schedules by dependency counting over
// succs/preds, not by id order.
type condensation struct {
	compOf []int32
	comps  [][]int32
	// succs/preds hold the distinct cross-component edges: succs[c] are the
	// components c's nodes step into (c depends on them), preds[c] the
	// components that step into c (they wait for c).
	succs [][]int32
	preds [][]int32
}

// link fills c.succs and c.preds, the distinct cross-component edges,
// carving every list out of one exactly counted arena. Each component
// dedups its members' node successors with a last-seen marker; preds lists
// come out in ascending source order.
func (c *condensation) link(deg func(u int) int, succ func(u, i int) int) {
	nc := len(c.comps)
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
		off[cid+1] = off[cid] + int32(scan(cid, int32(cid), nil))
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
		scan(cid, int32(nc+cid), out)
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

// condense computes the SCC condensation of the currently explored graph
// from scratch: one Tarjan pass, then one linking scan of every edge.
// Frontier nodes that are interned but unexplored have no successors and
// become singleton sink components, which is harmless: they hold no winning
// zones until explored.
func (s *solver) condense() *condensation {
	defer func(t0 time.Time) { s.stats.CondenseDuration += time.Since(t0) }(time.Now())
	deg := func(u int) int { return len(s.nodes[u].succs) }
	succ := func(u, i int) int { return s.nodes[u].succs[i].target }
	compOf, comps := tarjanSCC(len(s.nodes), deg, succ)
	c := &condensation{compOf: compOf, comps: comps}
	c.link(deg, succ)
	return c
}
