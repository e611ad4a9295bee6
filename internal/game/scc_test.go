package game

import (
	"fmt"
	"math/rand"
	"testing"
)

func runTarjan(adj [][]int) (compOf []int32, comps [][]int32) {
	return tarjanSCC(len(adj),
		func(u int) int { return len(adj[u]) },
		func(u, i int) int { return adj[u][i] },
	)
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
	compOf, comps := runTarjan(adj)

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
	if len(comps) != 5 {
		t.Fatalf("want 5 components, got %d: %v", len(comps), comps)
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
	// comps must partition the nodes consistently with compOf.
	seen := make([]bool, len(adj))
	for cid, comp := range comps {
		for _, v := range comp {
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
		compOf, comps := runTarjan(adj)
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
		c := &condensation{compOf: compOf, comps: comps}
		c.link(func(u int) int { return len(adj[u]) }, func(u, i int) int { return adj[u][i] })
		ctx := fmt.Sprintf("iter %d (n=%d)", iter, n)
		checkCondConsistent(t, c, n, ctx)
		checkCondEquiv(t, c, buildCondFrom(adj), n, ctx)
	}
}

// TestTarjanSCCDeepPath guards the iterative implementation: a recursive
// Tarjan would blow the stack on a path this long.
func TestTarjanSCCDeepPath(t *testing.T) {
	const n = 200000
	adj := make([][]int, n)
	for u := 0; u < n-1; u++ {
		adj[u] = []int{u + 1}
	}
	compOf, comps := runTarjan(adj)
	if len(comps) != n {
		t.Fatalf("a path has %d singleton components, got %d", n, len(comps))
	}
	// The chain's tail is the sink and must be emitted first.
	if compOf[n-1] != 0 || compOf[0] != int32(n-1) {
		t.Fatalf("reverse topological numbering broken: compOf[last]=%d compOf[0]=%d", compOf[n-1], compOf[0])
	}
}

// buildCondFrom is the reference condensation of an adjacency-list graph:
// tarjanSCC's partition with cross-component lists built by plain appends,
// independent of link's counted arena.
func buildCondFrom(adj [][]int) *condensation {
	compOf, comps := runTarjan(adj)
	c := &condensation{
		compOf: compOf,
		comps:  comps,
		succs:  make([][]int32, len(comps)),
		preds:  make([][]int32, len(comps)),
	}
	seen := make([]int32, len(comps))
	for i := range seen {
		seen[i] = -1
	}
	for cid := range comps {
		for _, u := range comps[cid] {
			for _, v := range adj[u] {
				d := compOf[v]
				if int(d) == cid || seen[d] == int32(cid) {
					continue
				}
				seen[d] = int32(cid)
				c.succs[cid] = append(c.succs[cid], d)
				c.preds[d] = append(c.preds[d], int32(cid))
			}
		}
	}
	return c
}

// checkCondConsistent verifies the structural invariants every consumer
// (propagate.go's dependency counting) relies on: compOf/comps agree as a
// partition, cross lists carry no self loops or duplicates, and preds is
// the exact inverse of succs.
func checkCondConsistent(t *testing.T, c *condensation, n int, ctx string) {
	t.Helper()
	if len(c.compOf) != n {
		t.Fatalf("%s: compOf has %d entries, want %d", ctx, len(c.compOf), n)
	}
	seen := make([]bool, n)
	for cid, members := range c.comps {
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
	for cid, ds := range c.succs {
		dup := map[int32]bool{}
		for _, d := range ds {
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
	for cid, ps := range c.preds {
		dup := map[int32]bool{}
		for _, p := range ps {
			if dup[p] {
				t.Fatalf("%s: comp %d lists pred %d twice", ctx, cid, p)
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
	rep := make([]int32, len(c.comps))
	for cid, members := range c.comps {
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
		for cid, ds := range c.succs {
			src := rep[c.comps[cid][0]]
			for _, d := range ds {
				out[edge{src, rep[c.comps[d][0]]}] = true
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
