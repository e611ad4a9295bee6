package game

import (
	"testing"

	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

// TestGhostOverlayAllocs bounds the heap allocations of one ghost-overlay
// replay over the LEP n=3 core. Mutant analysis splits an overlay per
// (mutant, edge goal), so the replay must cost a fixed number of backing
// arrays (23 for the overlay measured here), not a node, a state, a
// variable vector and a growing successor and predecessor list per
// overlay node (7.7 allocations per node when each is allocated alone).
func TestGhostOverlayAllocs(t *testing.T) {
	sys, env, plant, goalSrc, err := models.ByName("lep", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(sys, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	core, _, _, err := b.coreSkeleton(tctl.MustParse(env, goalSrc))
	if err != nil {
		t.Fatal(err)
	}
	// Watch the plant edge whose overlay splits the most nodes.
	edgeID, size := -1, 0
	for _, e := range sys.Procs[plant[0]].Edges {
		ov, err := ghostOverlay(core, e.ID, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ov.nodes) > size {
			edgeID, size = e.ID, len(ov.nodes)
		}
	}
	if size <= len(core.nodes) {
		t.Fatalf("no plant edge splits the core (%d nodes)", len(core.nodes))
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ghostOverlay(core, edgeID, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	perNode := allocs / float64(size)
	t.Logf("edge %d: %d overlay nodes over %d core nodes, %.0f allocations (%.3f per node)", edgeID, size, len(core.nodes), allocs, perNode)
	if perNode > 0.05 {
		t.Fatalf("%.0f allocations for %d overlay nodes (%.3f per node, bound 0.05)", allocs, size, perNode)
	}
}
