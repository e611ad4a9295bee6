package game

import (
	"fmt"
	"math/rand"
	"testing"
)

func adjFuncs(adj [][]int) (deg func(u int) int, succ func(u, i int) int) {
	return func(u int) int { return len(adj[u]) }, func(u, i int) int { return adj[u][i] }
}

// runTarjan returns tarjanSCC's partition of adj as an unlinked
// condensation.
func runTarjan(adj [][]int) *condensation {
	deg, succ := adjFuncs(adj)
	compOf, members, start := tarjanSCC(len(adj), deg, succ)
	return &condensation{compOf: compOf, members: members, start: start}
}

// TestTarjanSCCHandcrafted checks the condensation of a handcrafted cyclic
// graph: two cycles bridged by cross edges, a diamond into a sink, a
// self-loop, and an isolated node.
//
//	0 -> 1 -> 2 -> 0        (component {0,1,2})
//	2 -> 3
//	3 -> 4 -> 5 -> 3        (component {3,4,5})
//	5 -> 6, 3 -> 6          (6: sink)
//	7 -> 7                  (self-loop: its own component)
//	7 -> 0
//	8                       (isolated)
func TestTarjanSCCHandcrafted(t *testing.T) {
	adj := [][]int{
		0: {1},
		1: {2},
		2: {0, 3},
		3: {4, 6},
		4: {5},
		5: {3, 6},
		6: {},
		7: {7, 0},
		8: {},
	}
	c := runTarjan(adj)
	compOf := c.compOf

	same := func(a, b int) bool { return compOf[a] == compOf[b] }
	if !same(0, 1) || !same(1, 2) {
		t.Fatalf("0,1,2 must share a component: %v", compOf)
	}
	if !same(3, 4) || !same(4, 5) {
		t.Fatalf("3,4,5 must share a component: %v", compOf)
	}
	if same(0, 3) || same(0, 6) || same(3, 6) || same(7, 0) || same(8, 0) {
		t.Fatalf("distinct components merged: %v", compOf)
	}
	if c.numComps() != 5 {
		t.Fatalf("want 5 components, got %d: %v", c.numComps(), c.start)
	}
	// Reverse topological order: every edge leads into the same or an
	// earlier-emitted (smaller-id) component, so components can be solved
	// bottom-up in id order.
	for u := range adj {
		for _, v := range adj[u] {
			if compOf[v] > compOf[u] {
				t.Fatalf("edge %d->%d breaks reverse topological order (comp %d -> %d)",
					u, v, compOf[u], compOf[v])
			}
		}
	}
	// The members must partition the nodes consistently with compOf.
	seen := make([]bool, len(adj))
	for cid := 0; cid < c.numComps(); cid++ {
		for _, v := range c.comp(cid) {
			if seen[v] {
				t.Fatalf("node %d appears in two components", v)
			}
			seen[v] = true
			if compOf[v] != int32(cid) {
				t.Fatalf("node %d listed in comp %d but compOf says %d", v, cid, compOf[v])
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("node %d missing from every component", v)
		}
	}
}

// TestTarjanSCCRandomOracle cross-checks tarjanSCC against a mutual-
// reachability oracle (Floyd-Warshall closure) on random digraphs: u and v
// share a component iff each reaches the other.
func TestTarjanSCCRandomOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 50; iter++ {
		n := 2 + rng.Intn(30)
		adj := make([][]int, n)
		reach := make([][]bool, n)
		for u := 0; u < n; u++ {
			reach[u] = make([]bool, n)
			reach[u][u] = true
			edges := rng.Intn(4)
			for e := 0; e < edges; e++ {
				v := rng.Intn(n)
				adj[u] = append(adj[u], v)
				reach[u][v] = true
			}
		}
		for k := 0; k < n; k++ {
			for u := 0; u < n; u++ {
				if !reach[u][k] {
					continue
				}
				for v := 0; v < n; v++ {
					if reach[k][v] {
						reach[u][v] = true
					}
				}
			}
		}
		c := runTarjan(adj)
		compOf := c.compOf
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := reach[u][v] && reach[v][u]
				got := compOf[u] == compOf[v]
				if want != got {
					t.Fatalf("iter %d: nodes %d,%d: mutual reach %v but same-component %v", iter, u, v, want, got)
				}
			}
		}
		for u := 0; u < n; u++ {
			for _, v := range adj[u] {
				if compOf[v] > compOf[u] {
					t.Fatalf("iter %d: edge %d->%d breaks reverse topological order", iter, u, v)
				}
			}
		}
		// The production condensation (tarjanSCC + link, as condense builds
		// it) must match the reference builder's cross-component DAG.
		c.link(adjFuncs(adj))
		ctx := fmt.Sprintf("iter %d (n=%d)", iter, n)
		checkCondConsistent(t, c, n, ctx)
		checkCondEquiv(t, c, buildCondFrom(adj), n, ctx)
	}
}

// TestTarjanSCCDeepPath guards the iterative implementation: a recursive
// Tarjan would blow the stack on a path this long. Its 200 000 singleton
// components must cost about as many allocations as a path of two nodes:
// the flat layout allocates every array once, not once per component. The
// slack of the bound only absorbs the odd allocation the runtime makes on
// its own while megabyte-sized arrays are allocated.
func TestTarjanSCCDeepPath(t *testing.T) {
	const n = 200000
	path := func(n int) [][]int {
		adj := make([][]int, n)
		for u := 0; u < n-1; u++ {
			adj[u] = []int{u + 1}
		}
		return adj
	}
	adj := path(n)
	c := runTarjan(adj)
	if c.numComps() != n {
		t.Fatalf("a path has %d singleton components, got %d", n, c.numComps())
	}
	// The chain's tail is the sink and must be emitted first.
	if c.compOf[n-1] != 0 || c.compOf[0] != int32(n-1) {
		t.Fatalf("reverse topological numbering broken: compOf[last]=%d compOf[0]=%d", c.compOf[n-1], c.compOf[0])
	}

	allocs := func(adj [][]int) float64 {
		deg, succ := adjFuncs(adj)
		return testing.AllocsPerRun(2, func() { tarjanSCC(len(adj), deg, succ) })
	}
	if deep, short := allocs(adj), allocs(path(2)); deep > 2*short {
		t.Fatalf("condensing %d singleton components costs %.0f allocations, 2 cost %.0f", n, deep, short)
	}
}

// buildCondFrom is the reference condensation of an adjacency-list graph:
// tarjanSCC's partition with cross-component lists built by plain appends,
// independent of link's counted arena, then packed into the flat layout.
func buildCondFrom(adj [][]int) *condensation {
	c := runTarjan(adj)
	nc := c.numComps()
	succs := make([][]int32, nc)
	preds := make([][]int32, nc)
	seen := make([]int32, nc)
	for i := range seen {
		seen[i] = -1
	}
	for cid := 0; cid < nc; cid++ {
		for _, u := range c.comp(cid) {
			for _, v := range adj[u] {
				d := c.compOf[v]
				if int(d) == cid || seen[d] == int32(cid) {
					continue
				}
				seen[d] = int32(cid)
				succs[cid] = append(succs[cid], d)
				preds[d] = append(preds[d], int32(cid))
			}
		}
	}
	c.off = make([]int32, nc+1)
	c.pos = make([]int32, nc+1)
	var arena, predArena []int32
	for cid := 0; cid < nc; cid++ {
		arena = append(arena, succs[cid]...)
		predArena = append(predArena, preds[cid]...)
		c.off[cid+1] = int32(len(arena))
		c.pos[cid+1] = int32(len(predArena))
	}
	c.arena = append(arena, predArena...)
	return c
}

// checkCondConsistent verifies the structural invariants every consumer
// (propagate.go's dependency counting) relies on: the flat arrays have
// their sizes, compOf and the members agree as a partition, cross lists
// carry no self loops or duplicates, preds lists are ascending, and preds
// is the exact inverse of succs.
func checkCondConsistent(t *testing.T, c *condensation, n int, ctx string) {
	t.Helper()
	if len(c.compOf) != n || len(c.members) != n {
		t.Fatalf("%s: compOf has %d entries and members %d, want %d", ctx, len(c.compOf), len(c.members), n)
	}
	nc := c.numComps()
	if c.start[0] != 0 || c.start[nc] != int32(n) {
		t.Fatalf("%s: start runs from %d to %d, want 0 to %d", ctx, c.start[0], c.start[nc], n)
	}
	if len(c.off) != nc+1 || len(c.pos) != nc+1 || c.off[0] != 0 || c.pos[0] != 0 ||
		c.off[nc] != c.pos[nc] || len(c.arena) != int(2*c.off[nc]) {
		t.Fatalf("%s: %d components, but off %v, pos %v and an arena of %d", ctx, nc, c.off, c.pos, len(c.arena))
	}
	seen := make([]bool, n)
	for cid := 0; cid < nc; cid++ {
		members := c.comp(cid)
		if len(members) == 0 {
			t.Fatalf("%s: component %d is empty", ctx, cid)
		}
		for _, v := range members {
			if seen[v] {
				t.Fatalf("%s: node %d appears in two components", ctx, v)
			}
			seen[v] = true
			if c.compOf[v] != int32(cid) {
				t.Fatalf("%s: node %d listed in comp %d but compOf says %d", ctx, v, cid, c.compOf[v])
			}
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			t.Fatalf("%s: node %d missing from comps", ctx, v)
		}
	}
	type edge struct{ c, d int32 }
	fwd := map[edge]bool{}
	for cid := 0; cid < nc; cid++ {
		dup := map[int32]bool{}
		for _, d := range c.succs(cid) {
			if d == int32(cid) {
				t.Fatalf("%s: comp %d has a self cross-edge", ctx, cid)
			}
			if dup[d] {
				t.Fatalf("%s: comp %d lists succ %d twice", ctx, cid, d)
			}
			dup[d] = true
			fwd[edge{int32(cid), d}] = true
		}
	}
	inv := map[edge]bool{}
	for cid := 0; cid < nc; cid++ {
		dup := map[int32]bool{}
		ps := c.preds(cid)
		for i, p := range ps {
			if dup[p] {
				t.Fatalf("%s: comp %d lists pred %d twice", ctx, cid, p)
			}
			if i > 0 && p < ps[i-1] {
				t.Fatalf("%s: comp %d lists its preds out of order: %v", ctx, cid, ps)
			}
			dup[p] = true
			inv[edge{p, int32(cid)}] = true
		}
	}
	if len(fwd) != len(inv) {
		t.Fatalf("%s: succs carries %d cross edges, preds %d", ctx, len(fwd), len(inv))
	}
	for e := range fwd {
		if !inv[e] {
			t.Fatalf("%s: cross edge %d->%d in succs but not mirrored in preds", ctx, e.c, e.d)
		}
	}
}

// condRep maps every node to the smallest node id of its component — a
// numbering-independent canonical form of the partition.
func condRep(c *condensation, n int) []int32 {
	rep := make([]int32, c.numComps())
	for cid := range rep {
		members := c.comp(cid)
		min := members[0]
		for _, v := range members[1:] {
			if v < min {
				min = v
			}
		}
		rep[cid] = min
	}
	out := make([]int32, n)
	for v := 0; v < n; v++ {
		out[v] = rep[c.compOf[v]]
	}
	return out
}

// checkCondEquiv verifies that two condensations describe the same
// partition and the same cross-component DAG, independent of component
// numbering.
func checkCondEquiv(t *testing.T, got, want *condensation, n int, ctx string) {
	t.Helper()
	grep, wrep := condRep(got, n), condRep(want, n)
	for v := 0; v < n; v++ {
		if grep[v] != wrep[v] {
			t.Fatalf("%s: node %d in component of %d, oracle says %d", ctx, v, grep[v], wrep[v])
		}
	}
	type edge struct{ c, d int32 }
	canon := func(c *condensation, rep []int32) map[edge]bool {
		out := map[edge]bool{}
		for cid := 0; cid < c.numComps(); cid++ {
			src := rep[c.comp(cid)[0]]
			for _, d := range c.succs(cid) {
				out[edge{src, rep[c.comp(int(d))[0]]}] = true
			}
		}
		return out
	}
	ge, we := canon(got, grep), canon(want, wrep)
	if len(ge) != len(we) {
		t.Fatalf("%s: %d cross edges, oracle has %d", ctx, len(ge), len(we))
	}
	for e := range ge {
		if !we[e] {
			t.Fatalf("%s: spurious cross edge %d->%d", ctx, e.c, e.d)
		}
	}
}
