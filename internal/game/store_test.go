package game

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

// liveHeap returns the heap still reachable after two collections (the
// second empties the sync.Pool victim caches of the DBM free lists).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSolveLiveBytesPerNode bounds the memory a retained Table 1 solve
// (LEP n=5 TP2, the benchmark's options) keeps per node. A successor holds
// the explorer's shared transition, not a copy of it, and nodes with one
// discrete part share one location and variable vector, so the graph
// costs about 470 B per node; copying the 56-byte transition into every
// successor and keeping each node's own vectors costs 642 B.
func TestSolveLiveBytesPerNode(t *testing.T) {
	const bound = 500
	sys := models.LEP(models.LEPOptions{Nodes: 5})
	f := tctl.MustParse(models.LEPEnv(sys, 5), models.LEPTP2)
	before := liveHeap()
	res, err := Solve(sys, f, Options{EarlyTermination: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	nodes := res.debugNodes
	perNode := float64(after-before) / float64(len(nodes))
	t.Logf("%d nodes, %d successors, %.1f MB live, %.0f B per node", len(nodes), res.Stats.Transitions, float64(after-before)/1e6, perNode)
	if len(nodes) != 45917 {
		t.Fatalf("explored %d nodes, want 45917", len(nodes))
	}
	if perNode > bound {
		t.Errorf("%.0f live bytes per node, bound %d", perNode, bound)
	}

	// Nodes with equal discrete parts share their vectors' backing arrays.
	type shared struct{ locs, vars unsafe.Pointer }
	byDiscrete := map[string]shared{}
	for _, n := range nodes {
		key := fmt.Sprint(n.st.Locs, n.st.Vars)
		got := shared{unsafe.Pointer(unsafe.SliceData(n.st.Locs)), unsafe.Pointer(unsafe.SliceData(n.st.Vars))}
		if first, ok := byDiscrete[key]; !ok {
			byDiscrete[key] = got
		} else if got != first {
			t.Fatalf("node %d (%s) does not share its discrete part with an earlier node", n.id, key)
		}
	}
	t.Logf("%d distinct discrete parts", len(byDiscrete))
	runtime.KeepAlive(res)
}

// TestSolveAllocsPerNode bounds the heap allocations of one Table 1 solve
// (LEP n=5 TP2, the benchmark's options) per node. A condensation costs a
// fixed number of allocations per pass, not one per component; successors
// are built in worker scratch, so a duplicate allocates nothing but its
// pooled zone; a created node and its state are one object. Rebuilding
// per-component slices every pass and allocating every successor's
// vectors and state cost about 18.5 allocations per node.
func TestSolveAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop zones at random")
	}
	const bound = 12.0
	sys := models.LEP(models.LEPOptions{Nodes: 5})
	f := tctl.MustParse(models.LEPEnv(sys, 5), models.LEPTP2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Solve(sys, f, Options{EarlyTermination: true, Workers: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(after.Mallocs-before.Mallocs) / float64(res.Stats.Nodes)
	t.Logf("%d nodes, %d allocations, %.2f per node", res.Stats.Nodes, after.Mallocs-before.Mallocs, perNode)
	if perNode > bound {
		t.Errorf("%.2f allocations per node, bound %.1f", perNode, bound)
	}
}

// TestBatchSolveInternsNothing checks that a purpose solve on a cached
// skeleton allocates none of its node store's shard maps: it runs on the
// skeleton's nodes and never interns a state.
func TestBatchSolveInternsNothing(t *testing.T) {
	sys, env, _, goalSrc, err := models.ByName("smartlight", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(sys, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := tctl.MustParse(env, goalSrc)
	if _, err := b.Solve(f, false); err != nil {
		t.Fatal(err)
	}
	s := b.newSolver(sys, f, false)
	sk, _, hit, err := b.coreSkeleton(f)
	if err != nil || !hit {
		t.Fatalf("skeleton not cached (hit %v, err %v)", hit, err)
	}
	if _, err := s.solveOnSkeleton(sk); err != nil {
		t.Fatal(err)
	}
	for i := range s.store.shards {
		if s.store.shards[i].m != nil {
			t.Fatalf("shard %d has a map after a solve on a cached skeleton", i)
		}
	}
}
