package game

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"tigatest/internal/models"
)

// TestEdgeGhostStatPins pins, for every edge of Smart Light and Train-Gate
// and both games, the re-evaluation and update counts of the overlay
// fixpoint and the FNV-64 of the compiled strategy's wire bytes. The
// counts fix the worklist schedule and the wire bytes fix every zone
// decomposition and progress stamp, so an exact change to the fixpoint
// operator (such as answering a goal-covered node without its successors)
// must leave every line as it is.
func TestEdgeGhostStatPins(t *testing.T) {
	for _, spec := range []struct {
		model string
		pins  string
	}{
		{"smartlight", smartlightGhostPins},
		{"traingate", traingateGhostPins},
	} {
		sys, _, _, _, err := models.ByName(spec.model, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBatch(sys, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range sys.Procs {
			for _, e := range p.Edges {
				inst, gf := instrumentForTest(t, sys, e.ID)
				for _, coop := range []bool{false, true} {
					r, err := b.SolveEdgeGhost(inst, gf, e.ID, coop)
					if err != nil {
						t.Fatalf("%s edge %d coop=%v: %v", spec.model, e.ID, coop, err)
					}
					var wire uint64
					if r.Winnable {
						cs, err := r.CompiledStrategy()
						if err != nil {
							t.Fatalf("%s edge %d coop=%v: compile: %v", spec.model, e.ID, coop, err)
						}
						h := fnv.New64a()
						h.Write(cs.Encode())
						wire = h.Sum64()
					}
					got = append(got, fmt.Sprintf("%d %v %d %d %016x", e.ID, coop, r.Stats.Reevals, r.Stats.Updates, wire))
				}
			}
		}
		want := strings.Split(strings.TrimSpace(spec.pins), "\n")
		if len(got) != len(want) {
			t.Errorf("%s: %d solves, %d pinned; got:\n%s", spec.model, len(got), len(want), strings.Join(got, "\n"))
			continue
		}
		for i := range got {
			if got[i] != strings.TrimSpace(want[i]) {
				t.Errorf("%s: solve %d is %q, pinned %q (edge coop reevals updates wire)", spec.model, i, got[i], want[i])
			}
		}
	}
}

// Columns: edge id, cooperative game, Stats.Reevals, Stats.Updates, FNV-64a
// of CompiledStrategy().Encode() (0 when the purpose is not winnable).
const smartlightGhostPins = `
0 false 25 17 633d1538f45d0f6f
0 true 24 17 31e34cebb8ba2d76
1 false 30 20 f96b385ef6ac5384
1 true 28 20 faefd925fd21817b
2 false 31 21 907a5a889bfc7f20
2 true 29 21 dc527aa1bdc27dc1
3 false 19 9 0000000000000000
3 true 27 19 20a8258de2b8dc1a
4 false 19 9 0000000000000000
4 true 27 19 9af0b4f9a1574080
5 false 18 9 0000000000000000
5 true 25 18 b0d77a70febcf157
6 false 19 10 0000000000000000
6 true 26 19 c7e19906cf61ccf0
7 false 28 21 101a45e86a5125a1
7 true 24 19 716f87a38d939688
8 false 27 20 e9ec749cfc0a2b3e
8 true 23 18 a6632ed54b6ee026
9 false 29 22 b79896b51077ecfb
9 true 25 20 98ee2d58c3b858aa
10 false 28 21 409ec72029157402
10 true 24 19 32bd09d5de808d67
11 false 22 19 dc603fc2c6b91e37
11 true 22 19 8a7ec1f8bbec6879
12 false 19 9 0000000000000000
12 true 23 20 d1f157c03ef45cfb
13 false 19 9 0000000000000000
13 true 23 20 19dad559e106c36d
14 false 10 10 abaa659928a8e4be
14 true 10 10 85ead5af587bf1f2
15 false 17 15 51f4b377cd3429b3
15 true 15 14 803ceab646569fa7
16 false 10 0 0000000000000000
16 true 10 0 0000000000000000
17 false 24 19 81f8cd137b5ef0f0
17 true 22 18 ccba16409cd29304
18 false 10 0 0000000000000000
18 true 10 0 0000000000000000
19 false 24 18 c208e51ccfdf06df
19 true 20 16 1086d8d68b1f7cd4
20 false 10 0 0000000000000000
20 true 10 0 0000000000000000
21 false 21 18 10c819c0a688cd62
21 true 21 18 4ecb4bc149636221
`

const traingateGhostPins = `
0 false 42 36 0000000000000000
0 true 42 41 4364d1772977d28b
1 false 55 46 0000000000000000
1 true 54 51 622bf5b7609a4acb
2 false 76 61 0000000000000000
2 true 71 63 01c6e3cb809f133d
3 false 46 43 0ae233a8be359ea2
3 true 44 41 623b0a3d04379497
4 false 58 48 264c0f41b3d4cab5
4 true 55 47 e3a890067e5c83e1
5 false 87 66 23946ed9598a99c7
5 true 78 59 83991db21d7bd9e7
6 false 101 71 4988c172aa0f744a
6 true 89 65 f2c7823a886a51be
7 false 46 43 0ae233a8be359ea2
7 true 44 41 623b0a3d04379497
8 false 87 66 23946ed9598a99c7
8 true 78 59 83991db21d7bd9e7
9 false 42 36 0000000000000000
9 true 42 41 4364d1772977d28b
10 false 55 46 0000000000000000
10 true 54 51 622bf5b7609a4acb
11 false 76 61 0000000000000000
11 true 71 63 01c6e3cb809f133d
12 false 58 48 264c0f41b3d4cab5
12 true 55 47 e3a890067e5c83e1
13 false 101 71 4988c172aa0f744a
13 true 89 65 f2c7823a886a51be
`
