// Strategy trace extraction: which locations and edges can a supervised
// play of a strategy visit? Campaign planning uses this footprint to drop
// coverage goals already covered by earlier strategies (greedy suite
// minimization) and to verify that a goal's own strategy actually
// traverses it.

package game

// Cover is the footprint of a strategy's supervised plays: the locations a
// play can occupy and the model edges a play can traverse while the
// strategy keeps it inside the winning region. For strict strategies,
// controllable transitions count where the strategy may prescribe them and
// uncontrollable ones wherever a conformant plant may produce them without
// leaving the winning region; cooperative strategies additionally rely on
// hoped-for outputs, which widens the footprint.
type Cover struct {
	locs  map[int]map[int]bool // process index -> location indices
	edges map[int]bool         // global model edge IDs
}

// HasLoc reports whether a supervised play can put the process in the
// location.
func (c *Cover) HasLoc(proc, loc int) bool { return c.locs[proc][loc] }

// HasEdge reports whether a supervised play can traverse the model edge.
func (c *Cover) HasEdge(id int) bool { return c.edges[id] }

// NumEdges returns how many distinct model edges the cover contains.
func (c *Cover) NumEdges() int { return len(c.edges) }

// Merge folds another cover into this one.
func (c *Cover) Merge(o *Cover) {
	for pi, set := range o.locs {
		dst := c.locs[pi]
		if dst == nil {
			dst = map[int]bool{}
			c.locs[pi] = dst
		}
		for li := range set {
			dst[li] = true
		}
	}
	for id := range o.edges {
		c.edges[id] = true
	}
}

// NewCover returns an empty cover (useful as a merge accumulator).
func NewCover() *Cover {
	return &Cover{locs: map[int]map[int]bool{}, edges: map[int]bool{}}
}

// PlayCover computes the footprint of the strategy by walking the solved
// game graph from the initial state through every transition a supervised
// play can take: a location is covered when some reachable winning node
// occupies it, an edge when some reachable transition containing it has a
// non-empty traversal region. Strategies from early-terminated solves have
// partially grown winning sets, so their cover may under-approximate; the
// batch engine runs propagation to the fixpoint, where the cover is exact
// up to zone granularity.
func (st *Strategy) PlayCover() *Cover {
	c := NewCover()
	live := func(n *node) bool { return !n.win.IsEmpty() || !n.goal.IsEmpty() }
	if len(st.nodes) == 0 || !live(st.nodes[0]) {
		return c
	}
	visited := make([]bool, len(st.nodes))
	queue := []int{0}
	visited[0] = true
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := st.nodes[id]
		for pi, li := range n.st.Locs {
			set := c.locs[pi]
			if set == nil {
				set = map[int]bool{}
				c.locs[pi] = set
			}
			set[li] = true
		}
		for i := range n.succs {
			sc := &n.succs[i]
			target := st.nodes[sc.target]
			if !live(target) {
				continue
			}
			// Traversal region: where in this node may the transition fire
			// during a supervised play? actionRegion output zones are fresh
			// (PredThroughEdge clones), so the intermediates can be released.
			region := st.actionRegion(n, sc, 0)
			if !st.moveUsable(sc.trans) {
				// Strict strategy, plant-owned output: possible wherever the
				// play is winning here and the landing point stays winning.
				narrowed := region.Intersect(n.win)
				region.Release()
				region = narrowed
			}
			// Plays end the moment the goal holds, so goal points spawn no
			// further transitions.
			sansGoal := region.Subtract(n.goal)
			region.Release()
			region = sansGoal
			empty := region.IsEmpty()
			region.Release()
			if empty {
				continue
			}
			for _, e := range sc.trans.Edges {
				c.edges[e.ID] = true
			}
			if !visited[sc.target] {
				visited[sc.target] = true
				queue = append(queue, sc.target)
			}
		}
	}
	return c
}
