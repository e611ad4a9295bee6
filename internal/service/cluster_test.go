package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tigatest/internal/cluster"
	"tigatest/internal/faultconn"
	"tigatest/internal/game"
	"tigatest/internal/models"
	"tigatest/internal/obs/obstest"
	"tigatest/internal/tctl"
)

// startFleet spins up n clustered in-process daemons sharing the
// smartlight model and one static member set. It takes obstest.T so a
// retried fleet test re-creates its fleet per attempt (the cleanups run
// when the attempt ends, not at test end).
func startFleet(t obstest.T, n int, wrap func(net.Conn) net.Conn, topts cluster.TrackerOptions) []*Service {
	t.Helper()
	svcs := make([]*Service, n)
	ms := make([]cluster.Member, n)
	for i := range svcs {
		s := New(Options{})
		sys := models.SmartLight()
		if err := s.AddModel(sys, models.SmartLightEnv(sys), models.SmartLightPlant(sys)); err != nil {
			t.Fatal(err)
		}
		if err := s.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		svcs[i] = s
		ms[i] = cluster.Member{Addr: s.Addr()}
	}
	if topts.ProbeInterval == 0 {
		topts.ProbeInterval = 25 * time.Millisecond
	}
	if topts.FailThreshold == 0 {
		topts.FailThreshold = 2
	}
	for i, s := range svcs {
		tr, err := cluster.NewTracker(ms[i], cluster.StaticStore(ms), topts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EnableCluster(ClusterOptions{Tracker: tr, ForwardTimeout: 2 * time.Second, DialWrap: wrap}); err != nil {
			t.Fatal(err)
		}
		tr.Start()
		t.Cleanup(tr.Close)
		t.Cleanup(s.Drain) // cleanups run LIFO: drain before the tracker stops
	}
	return svcs
}

// fleetOwner computes which fleet index owns the (purpose, mode) strategy
// key — the same hash and ring the daemons consult.
func fleetOwner(t obstest.T, svcs []*Service, purpose, mode string) int {
	t.Helper()
	me, ok := svcs[0].modelByName("smartlight")
	if !ok {
		t.Fatal("smartlight not registered")
	}
	f, err := tctl.Parse(me.env, purpose)
	if err != nil {
		t.Fatal(err)
	}
	sig := game.ExtrapolationSignature(me.sys, f)
	h := cluster.StrategyKeyHash(me.hash, sig, f.String(), mode)
	owner := cluster.BuildRing(svcs[0].cl.opts.Tracker.Alive(), 0).Owner(h)
	for i, s := range svcs {
		if s.cl.opts.Tracker.Self().ID == owner.ID {
			return i
		}
	}
	t.Fatalf("owner %q is not a fleet member", owner.ID)
	return -1
}

// fleetWaitFor polls cond until it holds or 10s pass.
func fleetWaitFor(t obstest.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetExactlyOnceSolve is the tentpole acceptance criterion: K
// concurrent same-goal requests spread across a 3-node fleet cost exactly
// one game solve cluster-wide. The owner solves (misses=1); every
// non-owner forwards once (tier-2 singleflight) and serves the rest of
// its share as peer hits.
func TestFleetExactlyOnceSolve(t *testing.T) {
	svcs := startFleet(t, 3, nil, cluster.TrackerOptions{})
	const perNode = 4

	var wg sync.WaitGroup
	errs := make(chan error, 3*perNode)
	for i, s := range svcs {
		for j := 0; j < perNode; j++ {
			wg.Add(1)
			go func(i int, addr string) {
				defer wg.Done()
				c, err := Dial(addr)
				if err != nil {
					errs <- fmt.Errorf("node %d dial: %v", i, err)
					return
				}
				defer c.Close()
				info, err := c.Synthesize("smartlight", models.SmartLightGoal, "")
				if err != nil {
					errs <- fmt.Errorf("node %d: %v", i, err)
					return
				}
				if !info.Winnable {
					errs <- fmt.Errorf("node %d: goal not winnable", i)
				}
			}(i, s.Addr())
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	owner := fleetOwner(t, svcs, models.SmartLightGoal, "auto")
	var totalSolves, totalFails int64
	for i, s := range svcs {
		st := s.StatsSnapshot()
		totalSolves += st.Solver.Solves
		totalFails += st.Cluster.ForwardFailures
		if i == owner {
			if st.Cache.Misses != 1 {
				t.Errorf("owner misses = %d, want 1", st.Cache.Misses)
			}
			if st.Cluster.Forwards != 0 {
				t.Errorf("owner forwarded %d times, want 0", st.Cluster.Forwards)
			}
			if st.Cluster.PeerServes != 2 {
				t.Errorf("owner served %d forwards, want 2", st.Cluster.PeerServes)
			}
			continue
		}
		if st.Cluster.Forwards != 1 {
			t.Errorf("non-owner %d forwards = %d, want 1 (singleflight)", i, st.Cluster.Forwards)
		}
		if st.Cluster.PeerHits != perNode {
			t.Errorf("non-owner %d peer hits = %d, want %d", i, st.Cluster.PeerHits, perNode)
		}
		if st.Solver.Solves != 0 {
			t.Errorf("non-owner %d solved %d times, want 0", i, st.Solver.Solves)
		}
	}
	if totalSolves != 1 {
		t.Errorf("cluster-wide solves = %d, want exactly 1", totalSolves)
	}
	if totalFails != 0 {
		t.Errorf("forward failures = %d, want 0", totalFails)
	}

	// The peer-fetched compiled strategy is re-shipped byte-identically:
	// the strategy op must answer the same encoding on every node.
	var ref []byte
	for i, s := range svcs {
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		si, err := c.Strategy("smartlight", models.SmartLightGoal, "")
		c.Close()
		if err != nil {
			t.Fatalf("node %d strategy: %v", i, err)
		}
		if ref == nil {
			ref = si.Encoded
		} else if !bytes.Equal(ref, si.Encoded) {
			t.Errorf("node %d ships a different compiled encoding", i)
		}
	}
}

// TestFleetOwnerKillZeroFailures: draining the key's owner mid-stream
// must cost zero failed requests on the surviving peers — forwards fail,
// requests degrade to local solves — and the membership view converges
// without the owner.
func TestFleetOwnerKillZeroFailures(t *testing.T) {
	// Wall-clock margins all over: the 30ms head start before the drain,
	// the 25ms probe interval and the convergence window. A slow runner can
	// miss any of them with the fleet healthy, so the whole scenario runs
	// under the obstest retry policy with a fresh fleet per attempt.
	obstest.Retry(t, 3, func(t obstest.T) {
		svcs := startFleet(t, 3, nil, cluster.TrackerOptions{})
		owner := fleetOwner(t, svcs, models.SmartLightGoal, "auto")
		var survivors []*Service
		for i, s := range svcs {
			if i != owner {
				survivors = append(survivors, s)
			}
		}

		const perNode, rounds = 2, 10
		var wg sync.WaitGroup
		errs := make(chan error, len(survivors)*perNode)
		for _, s := range survivors {
			for j := 0; j < perNode; j++ {
				wg.Add(1)
				go func(addr string) {
					defer wg.Done()
					c, err := Dial(addr)
					if err != nil {
						errs <- err
						return
					}
					defer c.Close()
					for r := 0; r < rounds; r++ {
						if _, err := c.Synthesize("smartlight", models.SmartLightGoal, ""); err != nil {
							errs <- fmt.Errorf("round %d: %v", r, err)
							return
						}
						time.Sleep(10 * time.Millisecond)
					}
				}(s.Addr())
			}
		}
		time.Sleep(30 * time.Millisecond) // let the stream start flowing
		svcs[owner].Drain()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("request failed during owner drain: %v", err)
		}

		ownerID := svcs[owner].cl.opts.Tracker.Self().ID
		for _, s := range survivors {
			tr := s.cl.opts.Tracker
			fleetWaitFor(t, "membership convergence", func() bool {
				for _, m := range tr.Alive() {
					if m.ID == ownerID {
						return false
					}
				}
				return true
			})
		}
	})
}

// TestFleetDrainRefusesForwardsTyped is the drain bugfix: a draining
// owner answers an in-flight peer's forward with the typed draining error
// — before its local sessions finish — and the forwarder treats that as
// owner-down: local-solve fallback, immediate MarkDown, request served.
func TestFleetDrainRefusesForwardsTyped(t *testing.T) {
	// Probes parked: this test drives every transition by hand.
	svcs := startFleet(t, 2, nil, cluster.TrackerOptions{ProbeInterval: time.Hour})
	owner := fleetOwner(t, svcs, models.SmartLightGoal, "auto")
	own, fwd := svcs[owner], svcs[1-owner]

	// The owner's session re-checks Draining after every response and, if
	// set, closes the pooled link: the flip below must land only once that
	// re-check has passed and the session is back waiting for a request.
	ownerIdle := make(chan struct{}, 1)
	hook := func(s *Service, req *Request) {
		if s == own && req.Op == "peer_strategy" {
			select {
			case ownerIdle <- struct{}{}:
			default:
			}
		}
	}
	idleHook.Store(&hook)
	t.Cleanup(func() { idleHook.Store(nil) })

	// Warm the forward path: establishes the pooled peer link.
	c, err := Dial(fwd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Synthesize("smartlight", models.SmartLightGoal, ""); err != nil {
		t.Fatal(err)
	}
	if got := fwd.cl.peerHits.Load(); got != 1 {
		t.Fatalf("warmup peer hits = %d, want 1", got)
	}
	select {
	case <-ownerIdle:
	case <-time.After(5 * time.Second):
		t.Fatal("owner session never went idle after the warmup forward")
	}

	// Flip the owner draining (the first thing Drain does) without closing
	// its sessions, so the next forward lands on the live pooled link and
	// must be refused in-band.
	own.mu.Lock()
	own.draining = true
	own.mu.Unlock()

	// Evict the warmed tier-2 entry so the next request forwards again.
	fwd.cl.tier2.mu.Lock()
	fwd.cl.tier2.entries = map[peerKey]*peerEntry{}
	fwd.cl.tier2.mu.Unlock()

	if _, err := c.Synthesize("smartlight", models.SmartLightGoal, ""); err != nil {
		t.Fatalf("request during owner drain must degrade to a local solve, got %v", err)
	}
	if got := own.cl.drainRejects.Load(); got != 1 {
		t.Errorf("owner drain rejects = %d, want 1", got)
	}
	if got := fwd.cl.fallbacks.Load(); got != 1 {
		t.Errorf("forwarder local fallbacks = %d, want 1", got)
	}
	if got := fwd.cl.forwardFails.Load(); got != 1 {
		t.Errorf("forwarder failed forwards = %d, want 1", got)
	}
	if got := len(fwd.cl.opts.Tracker.Alive()); got != 1 {
		t.Errorf("draining owner must be marked down immediately, alive = %d", got)
	}

	// Release the parked accept loop so the cleanup Drain can finish.
	own.mu.Lock()
	ln := own.ln
	own.mu.Unlock()
	ln.Close()
}

// TestFleetChaosForwards routes every peer connection (forwards and
// probes) through the seeded fault injector: fragmented, garbled,
// latency-spiked and mid-stream-closed links may fail forwards, but every
// client request must still succeed (clean fallback), no session may
// wedge, and no node may end up with a poisoned cache — all nodes must
// ship the same checksum-verified compiled encoding afterwards.
func TestFleetChaosForwards(t *testing.T) {
	// The injected latency spikes ride on top of real runner load against
	// the fixed 2s forward timeout, so the scenario is retried with a fresh
	// fleet and fresh injector seeds per attempt (obstest policy). The
	// cache-poisoning assertions stay inside the block: they must hold on
	// whichever attempt the requests succeed.
	obstest.Retry(t, 3, func(t obstest.T) {
		var dials int64
		var mu sync.Mutex
		wrap := func(c net.Conn) net.Conn {
			mu.Lock()
			dials++
			seed := int64(0xC0FFEE) + dials*0x9E37
			mu.Unlock()
			return faultconn.Wrap(c, faultconn.Options{
				Seed:          seed,
				LatencyP:      0.05,
				FragmentP:     0.3,
				GarbageP:      0.05,
				CloseAfterOps: 40,
			})
		}
		svcs := startFleet(t, 3, wrap, cluster.TrackerOptions{})

		modes := []string{"", "strict", "cooperative"}
		var wg sync.WaitGroup
		errs := make(chan error, len(svcs)*len(modes)*2)
		for i, s := range svcs {
			for _, mode := range modes {
				wg.Add(1)
				go func(i int, addr, mode string) {
					defer wg.Done()
					c, err := Dial(addr)
					if err != nil {
						errs <- fmt.Errorf("node %d dial: %v", i, err)
						return
					}
					defer c.Close()
					for r := 0; r < 2; r++ {
						if _, err := c.Synthesize("smartlight", models.SmartLightGoal, mode); err != nil {
							errs <- fmt.Errorf("node %d mode %q: %v", i, mode, err)
							return
						}
					}
				}(i, s.Addr(), mode)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}

		// No poisoned caches: every node ships the identical strict encoding,
		// self-checksum verified by the client decode path.
		var ref []byte
		for i, s := range svcs {
			c, err := Dial(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			si, err := c.Strategy("smartlight", models.SmartLightGoal, "strict")
			c.Close()
			if err != nil {
				t.Fatalf("node %d strategy after chaos: %v", i, err)
			}
			cs, err := game.Decode(models.SmartLight(), si.Encoded)
			if err != nil {
				t.Fatalf("node %d shipped an undecodable strategy: %v", i, err)
			}
			if sum := fmt.Sprintf("%016x", cs.Checksum()); sum != si.Checksum {
				t.Fatalf("node %d checksum mismatch: %s vs %s", i, si.Checksum, sum)
			}
			if ref == nil {
				ref = si.Encoded
			} else if !bytes.Equal(ref, si.Encoded) {
				t.Errorf("node %d diverged from the fleet's compiled encoding", i)
			}
		}
	})
}

// TestStandaloneByteIdenticalToClustered: a daemon without -peers answers
// byte-identically to a single-member fleet (which owns every key and
// takes the local path), and its stats payload carries no cluster section
// at all — the ablation criterion.
func TestStandaloneByteIdenticalToClustered(t *testing.T) {
	solo := startService(t, Options{})
	fleet := startFleet(t, 1, nil, cluster.TrackerOptions{})[0]

	reqs := []string{
		fmt.Sprintf(`{"op":"synthesize","model":"smartlight","purpose":%q}`, models.SmartLightGoal),
		fmt.Sprintf(`{"op":"strategy","model":"smartlight","purpose":%q,"mode":"strict"}`, models.SmartLightGoal),
		fmt.Sprintf(`{"op":"run","model":"smartlight","purpose":%q,"iut":"local","repeats":2,"seed":7}`, models.SmartLightGoal),
		`{"op":"synthesize","model":"smartlight","purpose":"bogus("}`,
		`{"op":"synthesize","model":"smartlight","mode":"warp","purpose":"control: A<> IUT.Bright"}`,
	}
	cs, err := Dial(solo.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	cf, err := Dial(fleet.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	for _, req := range reqs {
		a, err := cs.RawRoundTrip([]byte(req))
		if err != nil {
			t.Fatalf("solo %s: %v", req, err)
		}
		b, err := cf.RawRoundTrip([]byte(req))
		if err != nil {
			t.Fatalf("fleet %s: %v", req, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("responses diverge for %s:\n solo: %s\nfleet: %s", req, a, b)
		}
	}

	data, err := json.Marshal(solo.StatsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"cluster"`) {
		t.Errorf("standalone stats must not carry a cluster section: %s", data)
	}
	if fleet.StatsSnapshot().Cluster == nil {
		t.Error("clustered stats must carry the cluster section")
	}
}

// TestWriteMetrics: the Prometheus exposition is well-formed, carries the
// daemon counters, and includes the cluster metrics exactly when the
// daemon is clustered.
func TestWriteMetrics(t *testing.T) {
	solo := startService(t, Options{})
	c, err := Dial(solo.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Synthesize("smartlight", models.SmartLightGoal, ""); err != nil {
		t.Fatal(err)
	}
	c.Close()

	var buf bytes.Buffer
	if err := WriteMetrics(&buf, solo.StatsSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE tigad_requests_total counter",
		"# TYPE tigad_cache_misses_total counter",
		"tigad_cache_misses_total 1",
		"tigad_models 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cluster_") {
		t.Errorf("standalone metrics must not expose cluster counters:\n%s", out)
	}

	fleet := startFleet(t, 1, nil, cluster.TrackerOptions{})[0]
	buf.Reset()
	if err := WriteMetrics(&buf, fleet.StatsSnapshot()); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{
		"# TYPE cluster_peer_hits counter",
		"cluster_forwards 0",
		"cluster_forward_failures 0",
		"cluster_owner_local_fallbacks 0",
		"cluster_alive 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet metrics missing %q:\n%s", want, out)
		}
	}
}
