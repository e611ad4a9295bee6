package texec

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tigatest/internal/dsl"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/tiots"
)

// clampStub is a consultant whose tables' largest constant is m; the loop
// check reads nothing else of it.
type clampStub struct {
	game.Consultant
	sys   *model.System
	m     int
	reads int
}

func (s *clampStub) System() *model.System { return s.sys }
func (s *clampStub) MaxConstant() int {
	s.reads++
	return s.m
}

// TestSameValuationMatchesExactClamp checks the loop check's three-step
// valuation comparison against tiots.SameClockKey at the exact clamp on
// seeded random valuation pairs, with clocks drawn on both sides of the
// floor and of the exact clamp, for systems with and without a nonzero
// reset value and strategies whose largest constant is 0 to 6. The exact
// clamp must be read at most once per run.
func TestSameValuationMatchesExactClamp(t *testing.T) {
	plain := dsl.MustParse(pinger).Sys
	reset2 := dsl.MustParse(strings.Replace(pinger, "edge Start -> Loop on go? do { x := 0 }", "edge Start -> Loop on go? do { x := 2 }", 1)).Sys
	if _, r := reset2.ClockBounds(); r != 2 {
		t.Fatalf("largest reset %d, want 2", r)
	}
	const scale = 4
	rng := rand.New(rand.NewSource(1))
	atClamp, floorOnly := 0, 0
	for _, sys := range []*model.System{plain, reset2} {
		floor := tiots.ClockClamp(sys, 0, scale)
		_, r := sys.ClockBounds()
		for m := 0; m <= 6; m++ {
			exact := tiots.ClockClamp(sys, m, scale)
			draw := func() int64 {
				switch rng.Intn(8) {
				case 0:
					return floor - 1
				case 1:
					return floor
				case 2:
					return floor + 1
				case 3:
					return exact - 1
				case 4:
					return exact
				case 5:
					return exact + 1
				case 6:
					return rng.Int63n(floor + 2)
				default:
					return rng.Int63n(2*exact + 3)
				}
			}
			stub := &clampStub{sys: sys, m: m}
			c := loopCheck{strat: stub, scale: scale, floor: floor}
			for pair := 0; pair < 2000; pair++ {
				snap := make([]int64, 1+rng.Intn(4))
				for i := range snap {
					snap[i] = draw()
				}
				val := append([]int64(nil), snap...)
				for i := range val {
					if rng.Intn(2) == 0 {
						val[i] = draw()
					}
				}
				c.val = snap
				want := tiots.SameClockKey(val, snap, exact)
				if got := c.sameValuation(val); got != want {
					t.Fatalf("r=%d m=%d: sameValuation(%v, %v) = %v, SameClockKey at %d = %v",
						r, m, val, snap, got, exact, want)
				}
				switch {
				case !tiots.SameClockKey(val, snap, floor) || slices.Equal(val, snap):
				case want:
					atClamp++
				default:
					floorOnly++
				}
			}
			if stub.reads > 1 {
				t.Fatalf("m=%d: MaxConstant read %d times", m, stub.reads)
			}
		}
	}
	// Both outcomes of the third step must occur, or the test could not
	// tell the exact comparison from the floor's or from plain equality.
	if atClamp == 0 || floorOnly == 0 {
		t.Fatalf("degenerate sample: %d unequal pairs equal at the clamp, %d equal at the floor only", atClamp, floorOnly)
	}
	t.Logf("%d unequal pairs equal at the clamp, %d equal at the floor only", atClamp, floorOnly)
}
