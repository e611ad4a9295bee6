package game_test

import (
	"sync"
	"testing"

	"tigatest/internal/campaign"
	"tigatest/internal/game"
	"tigatest/internal/models"
)

// TestCampaignBuildsFewNodes runs the benchmark's LEP n=3 campaign (seed
// 1) and checks that its runs build the rows of at most 5% of the nodes
// of the strategies they consult. Runs reach a handful of nodes per
// strategy, so a whole-table build on some hot path (say, MaxConstant
// read at every run's start) fails here.
func TestCampaignBuildsFewNodes(t *testing.T) {
	sys, env, plant, _, err := models.ByName("lep", 3)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		planned []*game.Result
	)
	_, err = campaign.Run(sys, env, campaign.Options{
		Coverage: campaign.CoverLocations | campaign.CoverEdges,
		Plant:    plant,
		Mutants:  12,
		Workers:  2,
		Seed:     1,
		Solver:   game.Options{Workers: 1},
		SolveVia: func(key campaign.SolveKey, solve func() (*game.Result, error)) (*game.Result, error) {
			res, err := solve()
			// Mutant-analysis solves (edit-keyed) are read for their
			// verdict only; planning solves are the consulted ones.
			if err == nil && res.Winnable && key.EditHash == 0 {
				mu.Lock()
				planned = append(planned, res)
				mu.Unlock()
			}
			return res, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes, built := 0, 0
	for _, res := range planned {
		cs, err := res.CompiledStrategy()
		if err != nil {
			t.Fatal(err)
		}
		ready, builds := cs.BuiltNodes()
		if ready != builds {
			t.Fatalf("%d nodes ready after %d builds", ready, builds)
		}
		nodes += cs.NumNodes()
		built += ready
	}
	t.Logf("%d strategies, %d nodes, %d built", len(planned), nodes, built)
	if nodes == 0 || built == 0 {
		t.Fatalf("degenerate campaign: %d nodes, %d built", nodes, built)
	}
	if built*20 > nodes {
		t.Fatalf("runs built %d of %d nodes (over 5%%)", built, nodes)
	}
}
