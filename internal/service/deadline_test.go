// Cancellation and deadline semantics: cache-level unit tests (waiter
// refcounting, eviction on cancel, panic recovery) and daemon-level
// integration tests pinning the acceptance behavior — an expired deadline
// answers with the typed "deadline" error, frees the session for the next
// request, and never poisons the strategy cache.

package service

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tigatest/internal/game"
	"tigatest/internal/models"
	"tigatest/internal/obs/obstest"
)

func testKey(purpose string) cacheKey {
	return cacheKey{model: 1, sig: "s", purpose: purpose, edge: -1}
}

// waitCounter polls an atomic until it reaches want (bounded).
func waitCounter(t *testing.T, c *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want >= %d", c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheSurvivorDeadlineHandoff: a leader whose deadline expires hands
// the in-flight solve to a joined waiter instead of killing it — the solve
// is canceled only when the LAST waiter withdraws.
func TestCacheSurvivorDeadlineHandoff(t *testing.T) {
	c := newFlight[cacheKey, *game.Result]()
	key := testKey("handoff")
	started := make(chan struct{})
	gate := make(chan struct{})
	solve := func(cancel <-chan struct{}) (*game.Result, error) {
		close(started)
		select {
		case <-gate:
			return &game.Result{Winnable: true}, nil
		case <-cancel:
			return nil, game.ErrCanceled
		}
	}

	leaderDone := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.get(key, leaderDone, solve, nil)
		leaderErr <- err
	}()
	<-started

	type outcome struct {
		res *game.Result
		err error
	}
	joiner := make(chan outcome, 1)
	go func() {
		res, err := c.get(key, nil, func(<-chan struct{}) (*game.Result, error) {
			return nil, fmt.Errorf("joiner must join the in-flight solve, not start its own")
		}, nil)
		joiner <- outcome{res, err}
	}()
	waitCounter(t, &c.joined, 1)

	close(leaderDone)
	if err := <-leaderErr; !errors.Is(err, ErrDeadline) {
		t.Fatalf("withdrawn leader: want ErrDeadline, got %v", err)
	}
	if got := c.canceled.Load(); got != 0 {
		t.Fatalf("solve canceled despite a surviving waiter (%d cancellations)", got)
	}
	if c.size() != 1 {
		t.Fatalf("in-flight entry must stay in the map, size=%d", c.size())
	}

	close(gate)
	out := <-joiner
	if out.err != nil {
		t.Fatalf("surviving joiner: %v", out.err)
	}
	if out.res == nil || !out.res.Winnable {
		t.Fatalf("surviving joiner got %+v", out.res)
	}
	if c.misses.Load() != 1 {
		t.Fatalf("exactly one solve must have started, misses=%d", c.misses.Load())
	}

	// The completed entry serves later requesters as a plain hit.
	res, err := c.get(key, nil, func(<-chan struct{}) (*game.Result, error) {
		return nil, fmt.Errorf("completed entry must serve without re-solving")
	}, nil)
	if err != nil || !res.Winnable {
		t.Fatalf("post-completion hit: res=%+v err=%v", res, err)
	}
}

// TestCacheCancelEvictsAndRetriesFresh: when every waiter withdraws, the
// solve is canceled, the entry evicted, and the next requester runs a
// brand-new solve — a cancel can never poison the key.
func TestCacheCancelEvictsAndRetriesFresh(t *testing.T) {
	c := newFlight[cacheKey, *game.Result]()
	key := testKey("evict")
	started := make(chan struct{})
	done := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		_, err := c.get(key, done, func(cancel <-chan struct{}) (*game.Result, error) {
			close(started)
			<-cancel
			return nil, game.ErrCanceled
		}, nil)
		errCh <- err
	}()
	<-started
	close(done)
	if err := <-errCh; !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	waitCounter(t, &c.canceled, 1)
	if c.size() != 0 {
		t.Fatalf("canceled entry must be evicted, size=%d", c.size())
	}

	res, err := c.get(key, nil, func(<-chan struct{}) (*game.Result, error) {
		return &game.Result{Winnable: true}, nil
	}, nil)
	if err != nil || !res.Winnable {
		t.Fatalf("fresh retry after cancel: res=%+v err=%v", res, err)
	}
	if c.misses.Load() != 2 {
		t.Fatalf("the retry must be a fresh solve, misses=%d", c.misses.Load())
	}
}

// TestCachePanicRecovered: a panicking solve costs its requester one error
// response, is counted, evicted, and the key stays retryable.
func TestCachePanicRecovered(t *testing.T) {
	c := newFlight[cacheKey, *game.Result]()
	key := testKey("panic")
	_, err := c.get(key, nil, func(<-chan struct{}) (*game.Result, error) {
		panic("boom")
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "solve panicked") {
		t.Fatalf("want a recovered panic error, got %v", err)
	}
	if c.panics.Load() != 1 {
		t.Fatalf("panic must be counted, got %d", c.panics.Load())
	}
	if c.size() != 0 {
		t.Fatalf("panicked entry must be evicted, size=%d", c.size())
	}
	res, err := c.get(key, nil, func(<-chan struct{}) (*game.Result, error) {
		return &game.Result{Winnable: true}, nil
	}, nil)
	if err != nil || !res.Winnable {
		t.Fatalf("retry after panic: res=%+v err=%v", res, err)
	}
}

// TestPeerTierFlightContract pins the peer tier's contract through the
// shared type: failed and panicking forwards are evicted (the panic
// counted) and the next request forwards again; a fetch error — even an
// owner's wrapped deadline answer — comes back as it is, never as the
// bare withdrawal sentinel; a withdrawn requester gets ErrDeadline while
// its forward runs on, and the forward's result warms the key. Once every
// requester has withdrawn, a newcomer starts a fresh forward, and the
// abandoned one settling never evicts it.
func TestPeerTierFlightContract(t *testing.T) {
	c := newFlight[peerKey, *peerResult]()
	key := peerKey{model: 1, sig: "s", purpose: "p", mode: "auto"}
	ok := &peerResult{info: &SynthInfo{Winnable: true}}
	mustNotFetch := func(<-chan struct{}) (*peerResult, error) {
		return nil, fmt.Errorf("a warm key must not forward again")
	}
	// settled waits until no forward is in flight (settle evicts before
	// it drops the inflight count).
	settled := func() {
		deadline := time.Now().Add(10 * time.Second)
		for c.inflight.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("forward never settled")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// A failing forward is evicted; its error is not the withdrawal.
	ownerDeadline := fmt.Errorf("%w: owner solve ran out", ErrDeadline)
	if _, err := c.get(key, nil, func(<-chan struct{}) (*peerResult, error) {
		return nil, ownerDeadline
	}, nil); err != ownerDeadline {
		t.Fatalf("failed forward: want the fetch's own error, got %v", err)
	}
	if c.size() != 0 {
		t.Fatalf("failed forward must be evicted, size=%d", c.size())
	}
	// A panicking forward is counted and evicted.
	if _, err := c.get(key, nil, func(<-chan struct{}) (*peerResult, error) {
		panic("bad payload")
	}, nil); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want a recovered panic error, got %v", err)
	}
	if c.panics.Load() != 1 || c.size() != 0 {
		t.Fatalf("panicked forward: panics=%d size=%d, want 1 and 0", c.panics.Load(), c.size())
	}
	if c.misses.Load() != 2 {
		t.Fatalf("each failure must be followed by a fresh forward, misses=%d", c.misses.Load())
	}

	// A withdrawn requester answers ErrDeadline; the forward completes
	// unattended and serves the next requester as a plain hit.
	started, gate := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		_, err := c.get(key, done, func(<-chan struct{}) (*peerResult, error) {
			close(started)
			<-gate
			return ok, nil
		}, nil)
		errCh <- err
	}()
	<-started
	close(done)
	if err := <-errCh; err != ErrDeadline {
		t.Fatalf("withdrawn requester: want the bare ErrDeadline, got %v", err)
	}
	close(gate)
	settled()
	if pr, err := c.get(key, nil, mustNotFetch, nil); err != nil || pr != ok {
		t.Fatalf("warmed key: pr=%+v err=%v", pr, err)
	}

	// Abandoned and still pending: the newcomer forwards fresh, and the
	// abandoned forward failing afterwards leaves the fresh result in place.
	key.purpose = "q"
	started, gate = make(chan struct{}), make(chan struct{})
	done = make(chan struct{})
	go func() {
		_, err := c.get(key, done, func(<-chan struct{}) (*peerResult, error) {
			close(started)
			<-gate
			return nil, fmt.Errorf("owner went away")
		}, nil)
		errCh <- err
	}()
	<-started
	close(done)
	if err := <-errCh; err != ErrDeadline {
		t.Fatalf("withdrawn requester: want the bare ErrDeadline, got %v", err)
	}
	misses := c.misses.Load()
	giveUp := make(chan struct{}) // a newcomer wrongly joining would wait on the gate
	defer time.AfterFunc(10*time.Second, func() { close(giveUp) }).Stop()
	if pr, err := c.get(key, giveUp, func(<-chan struct{}) (*peerResult, error) {
		return ok, nil
	}, nil); err != nil || pr != ok {
		t.Fatalf("fresh forward: pr=%+v err=%v", pr, err)
	}
	if c.misses.Load() != misses+1 {
		t.Fatalf("a newcomer must not join an abandoned forward, misses %d -> %d", misses, c.misses.Load())
	}
	close(gate)
	settled()
	if pr, err := c.get(key, nil, mustNotFetch, nil); err != nil || pr != ok {
		t.Fatalf("the abandoned forward's failure evicted the fresh entry: pr=%+v err=%v", pr, err)
	}
}

// startLepService spins up a daemon with the LEP instance (model name
// "lep-<n>") and smartlight registered.
func startLepService(t *testing.T, n int, opts Options) (*Service, string) {
	t.Helper()
	s := New(opts)
	sys, env, plant, goal, err := models.ByName("lep", n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddModel(sys, env, plant); err != nil {
		t.Fatal(err)
	}
	sl := models.SmartLight()
	if err := s.AddModel(sl, models.SmartLightEnv(sl), models.SmartLightPlant(sl)); err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	_ = goal
	return s, sys.Name
}

// TestRequestDeadlineLEP4 runs the full no-poison cycle on the mid-size
// instance: a 20ms deadline on a solve that takes much longer returns the
// typed deadline error; the same session immediately serves an unrelated
// request; the identical follow-up without a deadline solves fresh.
func TestRequestDeadlineLEP4(t *testing.T) {
	s, lepName := startLepService(t, 4, Options{MaxSessions: 4})
	cli, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Wall-clock margin: how fast the expired deadline answers depends on
	// the runner, so the latency bound is retried (each attempt issues a
	// fresh deadlined request; its canceled entry is evicted either way).
	obstest.Retry(t, 3, func(t obstest.T) {
		start := time.Now()
		_, err := cli.Do(Request{Op: "synthesize", Model: lepName, Purpose: models.LEPTP1, Mode: "strict", DeadlineMS: 20}, nil)
		elapsed := time.Since(start)
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("want ErrDeadline, got %v (after %v)", err, elapsed)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("deadline response took %v — withdrawal must not wait for the solver", elapsed)
		}
	})

	// The slot is free and the session usable: an unrelated request works.
	if _, err := cli.Synthesize("smartlight", models.SmartLightGoal, "strict"); err != nil {
		t.Fatalf("unrelated request on the same session: %v", err)
	}

	// Identical follow-up without a deadline: must solve fresh (the canceled
	// entry was evicted) and succeed.
	missesBefore := s.cache.misses.Load()
	resp, err := cli.Do(Request{Op: "synthesize", Model: lepName, Purpose: models.LEPTP1, Mode: "strict"}, nil)
	if err != nil {
		t.Fatalf("follow-up solve after cancel: %v", err)
	}
	if resp.Synth == nil {
		t.Fatal("follow-up solve returned no synth info")
	}
	if got := s.cache.misses.Load(); got <= missesBefore {
		t.Fatalf("follow-up must be a fresh solve, misses stayed at %d", got)
	}

	st := s.StatsSnapshot()
	if st.Sessions.Timeouts < 1 {
		t.Fatalf("timeouts counter must record the expiry, got %d", st.Sessions.Timeouts)
	}
	if st.Sessions.PanicsRecovered != 0 {
		t.Fatalf("no panics expected, got %d", st.Sessions.PanicsRecovered)
	}
}

// TestRequestDeadlineLEP6 pins the acceptance criterion on the large
// instance: deadline_ms=50 on the n=6 solve answers the typed deadline
// error in under a second, and the daemon serves an unrelated request on
// the same session right away. The full follow-up re-solve (minutes of
// fixpoint) runs only under TIGATEST_SLOW=1.
func TestRequestDeadlineLEP6(t *testing.T) {
	s, lepName := startLepService(t, 6, Options{MaxSessions: 4})
	cli, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Wall-clock margin: the sub-second bound is the acceptance criterion
	// but a loaded runner can miss it without a daemon defect, so it is
	// retried under the obstest policy (see DESIGN.md).
	obstest.Retry(t, 3, func(t obstest.T) {
		start := time.Now()
		_, err := cli.Do(Request{Op: "synthesize", Model: lepName, Purpose: models.LEPTP1, Mode: "strict", DeadlineMS: 50}, nil)
		elapsed := time.Since(start)
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("want ErrDeadline, got %v (after %v)", err, elapsed)
		}
		if elapsed >= time.Second {
			t.Fatalf("deadline response took %v, want < 1s", elapsed)
		}
	})
	if _, err := cli.Synthesize("smartlight", models.SmartLightGoal, "strict"); err != nil {
		t.Fatalf("unrelated request on the same session: %v", err)
	}

	if os.Getenv("TIGATEST_SLOW") == "" {
		t.Log("TIGATEST_SLOW unset: skipping the full n=6 follow-up re-solve")
		return
	}
	resp, err := cli.Do(Request{Op: "synthesize", Model: lepName, Purpose: models.LEPTP1, Mode: "strict"}, nil)
	if err != nil {
		t.Fatalf("follow-up n=6 solve after cancel: %v", err)
	}
	if resp.Synth == nil {
		t.Fatal("follow-up n=6 solve returned no synth info")
	}
}
