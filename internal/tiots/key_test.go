package tiots

import (
	"bytes"
	"testing"

	"tigatest/internal/model"
)

// TestStateKeyWindowAges pins the window-age part of DetIUT's state key:
// ages below the policy's largest explicit Offset give distinct keys, ages
// at or above it equal ones, and when no explicit Offset is positive (the
// lazy policy, a quiescent output) ages drop out of the key.
func TestStateKeyWindowAges(t *testing.T) {
	s, press, _ := beeper()
	var beepEdge int
	for _, e := range s.Procs[0].Edges {
		if e.Dir == model.Emit {
			beepEdge = e.ID
		}
	}
	offset := 3 * Scale
	// keysAt opens beep's window (w = 3, inside [2, 4]) and returns the
	// state key at each of the given window ages.
	keysAt := func(policy *DetPolicy, ages []int64) [][]byte {
		iut := NewDetIUT(s, Scale, policy)
		if err := iut.Offer(press); err != nil {
			t.Fatal(err)
		}
		if out := iut.Advance(3 * Scale); out != nil {
			t.Fatalf("beep fired after %d ticks; the test needs its window open", out.After)
		}
		if len(iut.windows) != 1 {
			t.Fatalf("%d open windows, want beep's alone", len(iut.windows))
		}
		var keys [][]byte
		for _, a := range ages {
			for k := range iut.windows {
				iut.windows[k] = a
			}
			keys = append(keys, iut.AppendStateKey(nil))
		}
		return keys
	}

	ages := []int64{0, 1, Scale, offset - 1, offset, offset + 1, 10 * offset}
	keys := keysAt(&DetPolicy{ByEdge: map[int]OutputDecision{beepEdge: {Enabled: true, Offset: offset}}}, ages)
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			equal := bytes.Equal(keys[i], keys[j])
			if want := ages[i] >= offset && ages[j] >= offset; equal != want {
				t.Errorf("ages %d and %d: equal keys %v, want %v", ages[i], ages[j], equal, want)
			}
		}
	}
	for _, policy := range []*DetPolicy{LazyPolicy(), {ByEdge: map[int]OutputDecision{beepEdge: {}}}} {
		keys := keysAt(policy, []int64{0, offset, 10 * offset})
		if !bytes.Equal(keys[0], keys[1]) || !bytes.Equal(keys[0], keys[2]) {
			t.Errorf("policy %+v: window ages change the key", policy)
		}
	}
}

// TestClockKeyDiagonal pins the valuation abstraction: clocks are keyed as
// min(v, T) and pairwise differences clamped to [-T, T], so two
// valuations above T whose difference differs within ±T keep distinct
// keys (a diagonal guard tells them apart), while differences beyond ±T
// and clocks above T merge.
func TestClockKeyDiagonal(t *testing.T) {
	T := 5 * Scale
	for _, c := range []struct {
		a, b []int64
		same bool
	}{
		{[]int64{6 * Scale, 7 * Scale}, []int64{6 * Scale, 8 * Scale}, false},
		{[]int64{9 * Scale, 7 * Scale}, []int64{6 * Scale, 7 * Scale}, false},
		{[]int64{6 * Scale, 2 * Scale}, []int64{6 * Scale, 3 * Scale}, false},
		{[]int64{20 * Scale, 2 * Scale}, []int64{6 * Scale, 2 * Scale}, false},
		{[]int64{20 * Scale, 7 * Scale}, []int64{30 * Scale, 7 * Scale}, true},
		{[]int64{20 * Scale, 2 * Scale}, []int64{30 * Scale, 2 * Scale}, true},
		{[]int64{6 * Scale, 20 * Scale}, []int64{6 * Scale, 40 * Scale}, true},
		{[]int64{8 * Scale, 7 * Scale}, []int64{9 * Scale, 8 * Scale}, true},
		{[]int64{Scale, 2 * Scale}, []int64{Scale, 2 * Scale}, true},
	} {
		keyEq := bytes.Equal(AppendClockKey(nil, c.a, T), AppendClockKey(nil, c.b, T))
		if keyEq != c.same || SameClockKey(c.a, c.b, T) != c.same {
			t.Errorf("%v vs %v: AppendClockKey equal %v, SameClockKey %v, want %v", c.a, c.b, keyEq, SameClockKey(c.a, c.b, T), c.same)
		}
	}
}

// TestClockClamp pins T = (m+r+1)·scale, r the largest reset value.
func TestClockClamp(t *testing.T) {
	s, _, _ := beeper()
	if got := ClockClamp(s, 5, Scale); got != 6*Scale {
		t.Errorf("beeper (resets to 0): ClockClamp(5) = %d, want %d", got, 6*Scale)
	}
	if got := SystemClamp(s, Scale); got != 6*Scale {
		t.Errorf("beeper: SystemClamp = %d, want %d (largest constant 5)", got, 6*Scale)
	}
	s.Procs[0].Edges[0].Resets[0].Value = 2
	if got := ClockClamp(s, 5, Scale); got != 8*Scale {
		t.Errorf("beeper with w := 2: ClockClamp(5) = %d, want %d", got, 8*Scale)
	}
}
