// Randomized edit-sequence property tests for the incremental SCC
// condensation: apply seeded insert/grow scripts to random graphs, maintain the condensation through updateCondensation after every
// step, and cross-check it against a from-scratch tarjanSCC condensation —
// the same mutual-reachability-style oracle scc_test.go pins the full
// Tarjan pass with.

package game

import (
	"fmt"
	"math/rand"
	"testing"
)

// buildCondFrom computes a condensation of an adjacency-list graph from
// scratch, mirroring the solver's full condense() path.
func buildCondFrom(adj [][]int32) *condensation {
	n := len(adj)
	compOf, comps := tarjanSCC(n,
		func(u int) int { return len(adj[u]) },
		func(u, i int) int { return int(adj[u][i]) },
	)
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

// TestIncrementalCondensationRandomScripts drives updateCondensation
// through 500 seeded edit scripts — edge inserts and node growth with
// mixed old/new edges, the only edits the solver makes — cross-checking
// the maintained condensation against the from-scratch oracle after every
// step.
func TestIncrementalCondensationRandomScripts(t *testing.T) {
	const scripts = 500
	for script := 0; script < scripts; script++ {
		rng := rand.New(rand.NewSource(1000 + int64(script)))
		n0 := 2 + rng.Intn(12)
		adj := make([][]int32, n0)
		for u := range adj {
			for k := rng.Intn(4); k > 0; k-- {
				adj[u] = append(adj[u], int32(rng.Intn(n0)))
			}
		}
		cond := buildCondFrom(adj)

		steps := 3 + rng.Intn(6)
		for step := 0; step < steps; step++ {
			oldN := len(adj)
			var inserted [][2]int32
			record := func(u, v int32) {
				// Edges wholly among nodes added this step need no entry.
				if int(u) >= oldN && int(v) >= oldN {
					return
				}
				inserted = append(inserted, [2]int32{u, v})
			}
			for op := 1 + rng.Intn(4); op > 0; op-- {
				switch rng.Intn(2) {
				case 0: // insert an edge between existing nodes
					u, v := int32(rng.Intn(len(adj))), int32(rng.Intn(len(adj)))
					adj[u] = append(adj[u], v)
					record(u, v)
				case 1: // grow: a new node with edges in both directions
					nn := int32(len(adj))
					adj = append(adj, nil)
					for k := rng.Intn(3); k > 0; k-- {
						v := int32(rng.Intn(len(adj)))
						adj[nn] = append(adj[nn], v)
						record(nn, v)
					}
					for k := rng.Intn(3); k > 0; k-- {
						u := int32(rng.Intn(int(nn)))
						adj[u] = append(adj[u], nn)
						record(u, nn)
					}
				}
			}

			cond = updateCondensation(cond, oldN, len(adj),
				func(u int) int { return len(adj[u]) },
				func(u, i int) int { return int(adj[u][i]) },
				inserted,
			)
			ctx := fmt.Sprintf("script %d step %d (n=%d)", script, step, len(adj))
			checkCondConsistent(t, cond, len(adj), ctx)
			checkCondEquiv(t, cond, buildCondFrom(adj), len(adj), ctx)
		}
	}
}
