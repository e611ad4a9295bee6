package campaign

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"tigatest/internal/game"
	"tigatest/internal/models"
)

// TestCampaignReportPins pins the SHA-256 of the canonical report of the
// benchmark's two campaign workloads (LEP n=3 location and edge coverage,
// Smart Light edge coverage; 12 sampled mutants, seeds 1-8). The canonical
// report carries the plan, every cell's verdict counts, the mutation
// matrix and the analysis verdicts, so a solver change that moves a
// strategy, a kill or an analysis classification fails here first.
func TestCampaignReportPins(t *testing.T) {
	pins := map[string][8]string{
		"lep": {
			"885be29feba6ebea2b4a135c6dfae6dd0a3ac661dedd38115ddc8717a0ac2c70",
			"6380fd69e43a1405c6bccf4c9ac936a494bd9901b827faccd160fe425541ade6",
			"a191b078669d7149ec460a7ce95e24d4b6baa95f4efbe221ca2d25a56f717b11",
			"13b81a2b5be7c75e39e34d1d84b0d448bbc60c434a6f7c1a6c61e75016db6b30",
			"4d580fdcf2e6ee2ef3e9cb0a9bafa2d3203bd324f3db2682716f85cf5c2c08e6",
			"d0b4dd90105409865ace2f6a085a61a184d09ec0100da0cbf2365929de2bfb0c",
			"5de01566d6a3dbd8ab2b7edc41973890879c8e0c29fae6bec7b6251f22fac6f5",
			"77224213a0425398b569e5b40cc2d00d0ed446bc5001dfab3a72cfbc640d6804",
		},
		"smartlight": {
			"bb645359948e0fd01e9d2736c380fec5d68703c49f5d9622209638e4928433d8",
			"f9578e7605d62c953c43c5775e75a1405f4dd81432daeb0446e65e3a3a28849c",
			"6336efdd56c44b2ce6831693a1235b40aa4d8ed97898d1295ae01f62c1bc943b",
			"722985b99f6e600d186318de7d22e03216431b873114e94a4c9d2ec3a7ef6dc1",
			"9b5cb73dc0d016e0d3f070113f455543b5799d622cc9cdd09a9a4b7b3f37982e",
			"1fb2f9a6ffd7e4607339901cce8bd499d0b7406f115d1d3cc9a1c27d7b8380d0",
			"b533b8a2482de357d10ad35ea9ad3d1818e9976d394f9a9ec4e194ad0d372e2a",
			"309b6d2cd5dd5c723e9c01f94bf31a0e041c43b673fa0428b3e71b413b9d890b",
		},
	}
	for _, spec := range []struct {
		model    string
		coverage Coverage
	}{
		{"lep", CoverLocations | CoverEdges},
		{"smartlight", CoverEdges},
	} {
		sys, env, plant, _, err := models.ByName(spec.model, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range pins[spec.model] {
			seed := int64(i + 1)
			rep, err := Run(sys, env, Options{
				Coverage: spec.coverage,
				Plant:    plant,
				Mutants:  12,
				Workers:  2,
				Seed:     seed,
				Solver:   game.Options{Workers: 1},
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec.model, seed, err)
			}
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf, false); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
				t.Errorf("%s seed %d: report digest %s, pinned %s", spec.model, seed, got, want)
			}
		}
	}
}
