package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

// startService spins up a daemon with the smartlight model registered.
func startService(t *testing.T, opts Options) *Service {
	t.Helper()
	s := New(opts)
	sys := models.SmartLight()
	if err := s.AddModel(sys, models.SmartLightEnv(sys), models.SmartLightPlant(sys)); err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	return s
}

// countingIUT wraps an IUT and counts the wire traffic it served — the
// fresh-IUT isolation probe: every session must drive exactly its own
// instance.
type countingIUT struct {
	inner    tiots.IUT
	resets   atomic.Int64
	offers   atomic.Int64
	advances atomic.Int64
	seeds    atomic.Int64
}

func (c *countingIUT) Reset() {
	c.resets.Add(1)
	c.inner.Reset()
}
func (c *countingIUT) Offer(ch int) error {
	c.offers.Add(1)
	return c.inner.Offer(ch)
}
func (c *countingIUT) Advance(d int64) *tiots.Output {
	c.advances.Add(1)
	return c.inner.Advance(d)
}
func (c *countingIUT) Seed(int64) { c.seeds.Add(1) }

func smartlightIUT() *countingIUT {
	sys := models.SmartLight()
	impl := model.ExtractPlant(sys, models.SmartLightPlant(sys), "Stub")
	return &countingIUT{inner: tiots.NewDetIUT(impl, tiots.Scale, nil)}
}

// TestServiceCacheSingleflight is the acceptance criterion: K concurrent
// sessions requesting the same goal trigger exactly 1 solve; the other
// K-1 requests are cache hits.
func TestServiceCacheSingleflight(t *testing.T) {
	const K = 32
	s := startService(t, Options{MaxSessions: K})
	addr := s.Addr()

	var wg sync.WaitGroup
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			info, err := c.Synthesize("smartlight", models.SmartLightGoal, "strict")
			if err != nil {
				errs <- err
				return
			}
			if !info.Winnable || info.Cooperative {
				errs <- fmt.Errorf("standard purpose must be strictly winnable: %+v", info)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cs := s.cache.stats()
	if cs.Misses != 1 {
		t.Fatalf("K concurrent identical requests must trigger exactly 1 solve, got %d misses", cs.Misses)
	}
	if cs.Hits != K-1 {
		t.Fatalf("want %d cache hits, got %d", K-1, cs.Hits)
	}
	if cs.Inflight != 0 {
		t.Fatalf("no solve may remain in flight, got %d", cs.Inflight)
	}
	if got := s.solves.Load(); got != 1 {
		t.Fatalf("solver must have run once, got %d", got)
	}
}

// TestServiceCacheKeyGranularity: distinct purposes and modes are distinct
// keys, but share the model's explored skeleton (the batch layer).
func TestServiceCacheKeyGranularity(t *testing.T) {
	s := startService(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Synthesize("smartlight", models.SmartLightGoal, "strict"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Synthesize("smartlight", "control: A<> IUT.Dim", "strict"); err != nil {
		t.Fatal(err)
	}
	// Same goals again: pure hits.
	if _, err := c.Synthesize("smartlight", models.SmartLightGoal, "strict"); err != nil {
		t.Fatal(err)
	}
	cs := s.cache.stats()
	if cs.Misses != 2 || cs.Hits != 1 {
		t.Fatalf("want 2 misses + 1 hit, got %+v", cs)
	}
	// The second purpose shared the first one's explored skeleton.
	if s.skeletonHits.Load() == 0 {
		t.Fatalf("distinct purposes on one model must share the explored skeleton: %d", s.skeletonHits.Load())
	}
}

// TestServiceConcurrentCampaignsShareCache is the shared-core acceptance
// criterion at the service layer: two concurrent edge-coverage campaigns
// on one model must show nonzero strategy-cache hits for each other's
// goals — every per-goal solve (strict and cooperative) is requested once
// per campaign, so each key costs one miss for whichever campaign gets
// there first and one hit for the other — while the model's
// un-instrumented core skeleton is explored exactly once across both.
func TestServiceConcurrentCampaignsShareCache(t *testing.T) {
	s := startService(t, Options{})
	addr := s.Addr()

	const K = 2
	reports := make([][]byte, K)
	var wg sync.WaitGroup
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rep, err := c.Campaign(Request{Model: "smartlight", Coverage: "edge", Mutants: -1, Workers: 2})
			if err != nil {
				errs <- err
				return
			}
			reports[i] = rep
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("concurrent campaigns must return identical canonical reports:\n--- a ---\n%s\n--- b ---\n%s", reports[0], reports[1])
	}
	cs := s.cache.stats()
	if cs.Hits == 0 {
		t.Fatalf("concurrent campaigns must hit each other's cached goal solves: %+v", cs)
	}
	if cs.Hits != cs.Misses {
		t.Fatalf("each per-goal key is requested once per campaign (1 miss + %d hits): %+v", K-1, cs)
	}
	if got := s.skeletonCoreMisses.Load(); got != 1 {
		t.Fatalf("the un-instrumented core must be explored exactly once across campaigns, got %d explorations", got)
	}
	if s.skeletonCoreHits.Load() == 0 {
		t.Fatal("later edge goals must reuse the shared core skeleton")
	}

	// The campaigns primed the cache: synthesizing one of their edge-goal
	// purposes by name still misses (a plain purpose is a different key than
	// a ghost-overlay solve), but the campaign keys themselves stay warm — a
	// third campaign is hits only.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := s.cache.stats()
	if _, err := c.Campaign(Request{Model: "smartlight", Coverage: "edge", Mutants: -1, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	after := s.cache.stats()
	if after.Misses != before.Misses {
		t.Fatalf("a repeat campaign must be served entirely from the cache: %+v -> %+v", before, after)
	}
	if after.Hits <= before.Hits {
		t.Fatalf("a repeat campaign must register cache hits: %+v -> %+v", before, after)
	}
}

// TestServiceByteIdenticalResponses: repeated identical control-API
// requests return byte-identical response lines (synthesize, run against
// the local conformant implementation, campaign).
func TestServiceByteIdenticalResponses(t *testing.T) {
	s := startService(t, Options{})
	requests := []string{
		`{"op":"synthesize","model":"smartlight","purpose":"control: A<> IUT.Bright"}`,
		`{"op":"run","model":"smartlight","purpose":"control: A<> IUT.Bright","repeats":3,"seed":7}`,
		`{"op":"campaign","model":"smartlight","coverage":"edge","mutants":-1,"workers":2}`,
	}
	for _, req := range requests {
		var first []byte
		for round := 0; round < 2; round++ {
			c, err := Dial(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			line, err := c.RawRoundTrip([]byte(req))
			c.Close()
			if err != nil {
				t.Fatalf("%s: %v", req, err)
			}
			var resp Response
			if err := json.Unmarshal(line, &resp); err != nil {
				t.Fatalf("%s: %v", req, err)
			}
			if !resp.OK {
				t.Fatalf("%s: %s", req, resp.Error)
			}
			if round == 0 {
				first = line
			} else if !bytes.Equal(first, line) {
				t.Fatalf("%s: responses differ across identical requests:\n--- a ---\n%s\n--- b ---\n%s", req, first, line)
			}
		}
	}
}

// TestServiceConcurrentInlineSessions drives >= 64 simultaneous online
// test sessions, each hosting its own implementation inline, under the
// race detector: every run must pass, every session must have driven
// exactly its own IUT (fresh-IUT isolation), and the drain must shut the
// service down cleanly with no session left.
func TestServiceConcurrentInlineSessions(t *testing.T) {
	const K = 64
	const repeats = 2
	s := startService(t, Options{MaxSessions: K})
	addr := s.Addr()

	iuts := make([]*countingIUT, K)
	var wg sync.WaitGroup
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		iuts[i] = smartlightIUT()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			run, err := c.Run(Request{
				Model:   "smartlight",
				Purpose: models.SmartLightGoal,
				Repeats: repeats,
				Seed:    int64(i + 1), // per-session seed
			}, iuts[i])
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			if run.Verdict != "pass" || run.Pass != repeats {
				errs <- fmt.Errorf("session %d: want %d passes, got %+v", i, repeats, run)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Fresh-IUT isolation: every session drove exactly its own instance —
	// one reset and one seed per repeat, and some offers (the strategy
	// sends touches).
	for i, iut := range iuts {
		if got := iut.resets.Load(); got != repeats {
			t.Errorf("session %d: want %d resets on its own IUT, got %d", i, repeats, got)
		}
		if got := iut.seeds.Load(); got != repeats {
			t.Errorf("session %d: want %d seeds, got %d", i, repeats, got)
		}
		if iut.offers.Load() == 0 {
			t.Errorf("session %d: strategy must have offered inputs", i)
		}
	}

	if got := s.sessTotal.Load(); got != K {
		t.Errorf("want %d total sessions, got %d", K, got)
	}
	if got := s.testRuns.Load(); got != K*repeats {
		t.Errorf("want %d test runs, got %d", K*repeats, got)
	}
	if got := s.cache.stats().Misses; got != 1 {
		t.Errorf("all sessions share one strategy: want 1 solve, got %d", got)
	}

	// Clean full drain: no sessions left, new dials refused.
	s.Drain()
	if got := s.sessActive.Load(); got != 0 {
		t.Fatalf("drain must leave no active session, got %d", got)
	}
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial after drain must fail")
	}
}

// TestServiceBusyBackpressure: the session semaphore answers excess
// connections with an explicit busy event instead of queueing them.
func TestServiceBusyBackpressure(t *testing.T) {
	s := startService(t, Options{MaxSessions: 1})
	addr := s.Addr()

	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr); err != ErrBusy {
		t.Fatalf("second concurrent session must be rejected busy, got %v", err)
	}
	if s.sessBusy.Load() == 0 {
		t.Fatal("busy rejections must be counted")
	}

	// The slot frees when the session ends; a later dial succeeds.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := Dial(addr)
		if err == nil {
			c2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceDrainFinishesInflightRequest: a request being handled when
// Drain starts completes and its response is delivered; the session closes
// right after.
func TestServiceDrainFinishesInflightRequest(t *testing.T) {
	s := startService(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	drained := make(chan struct{})
	go func() {
		// Wait for the request below to be decoded (and thus in flight),
		// then drain concurrently.
		for s.requests.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		s.Drain()
		close(drained)
	}()
	// A campaign is slow enough to still be running when Drain fires.
	if _, err := c.Campaign(Request{Model: "smartlight", Coverage: "edge", Mutants: -1, Workers: 2}); err != nil {
		t.Fatalf("in-flight request must complete through the drain: %v", err)
	}
	<-drained
	if got := s.sessActive.Load(); got != 0 {
		t.Fatalf("post-drain active sessions: %d", got)
	}
}

// TestServiceStatsAndErrors covers the stats endpoint and the error
// responses of malformed requests.
func TestServiceStatsAndErrors(t *testing.T) {
	s := startService(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Synthesize("nosuch", models.SmartLightGoal, ""); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := c.Synthesize("smartlight", "control: A<> Bogus.Loc", ""); err == nil {
		t.Fatal("bad purpose must error")
	}
	if _, err := c.Run(Request{Model: "smartlight", Purpose: "control: A<> IUT.Bright and z < 1", Mode: "strict"}, nil); err == nil {
		t.Fatal("running an unwinnable purpose must error")
	}
	// Auto mode falls back to the cooperative game for the same purpose.
	info, err := c.Synthesize("smartlight", "control: A<> IUT.Bright and z < 1", "auto")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Winnable || !info.Cooperative {
		t.Fatalf("auto mode must fall back to the cooperative game: %+v", info)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Models) != 1 || st.Models[0].Name != "smartlight" {
		t.Fatalf("stats must list the registered model: %+v", st.Models)
	}
	if st.Models[0].Hash == "" || len(st.Models[0].Plant) == 0 {
		t.Fatalf("model info incomplete: %+v", st.Models[0])
	}
	if st.Sessions.Active != 1 || st.Sessions.Total < 1 {
		t.Fatalf("session counters off: %+v", st.Sessions)
	}
	if st.Solver.Solves == 0 {
		t.Fatalf("solver counters off: %+v", st.Solver)
	}
}

// TestServiceRefusesSafetyRun: a safety purpose has no compiled
// consultation path, so run refuses it with the error the strategy op
// answers, for the local and the inline IUT alike, instead of executing
// it. The daemon's batch solver rejects the purpose before compilation.
func TestServiceRefusesSafetyRun(t *testing.T) {
	s := startService(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const purpose = "control: A[] not IUT.Bright"
	_, want := c.Strategy("smartlight", purpose, "strict")
	if want == nil || !strings.Contains(want.Error(), "reachability purposes only") {
		t.Fatalf("strategy op: got %v, want a refusal of the safety purpose", want)
	}
	for _, iut := range []tiots.IUT{nil, smartlightIUT()} {
		run, err := c.Run(Request{Model: "smartlight", Purpose: purpose, Mode: "strict"}, iut)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("run (inline=%v): got %+v, %v; want %v", iut != nil, run, err, want)
		}
	}
}

// TestServiceRunLocalMatchesDirect pins the local-run path against direct
// in-process execution: the daemon's tally must equal what campaign.Runner
// computes locally for the same seed.
func TestServiceRunLocalMatchesDirect(t *testing.T) {
	s := startService(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	run, err := c.Run(Request{Model: "smartlight", Purpose: models.SmartLightGoal, Repeats: 3, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Verdict != "pass" || run.Pass != 3 || run.Fail != 0 {
		t.Fatalf("conformant local run must pass all repeats: %+v", run)
	}
	if run.Synth.Nodes == 0 || run.Synth.ModelHash == "" || run.Synth.Signature == "" {
		t.Fatalf("synth info incomplete: %+v", run.Synth)
	}
}

// TestServiceCampaignReportCanonical: the embedded campaign report is the
// canonical encoding — parse it and check the headline invariants.
func TestServiceCampaignReportCanonical(t *testing.T) {
	s := startService(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	raw, err := c.Campaign(Request{Model: "smartlight", Coverage: "edge", Mutants: -1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Model   string `json:"model"`
		Summary struct {
			Coverable   int     `json:"coverable"`
			Covered     int     `json:"covered"`
			CoveragePct float64 `json:"coverage_pct"`
		} `json:"summary"`
		Volatile json.RawMessage `json:"volatile"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Model != "smartlight" || rep.Summary.CoveragePct != 100 {
		t.Fatalf("campaign report off: %+v", rep)
	}
	if len(rep.Volatile) != 0 {
		t.Fatal("canonical report must strip the volatile section")
	}
}

// TestServiceStrategyOpAndCounters pins the compiled wire path end to end:
// the strategy op ships the canonical encoding, the client decodes it
// against its own copy of the model, cross-checks the self-checksum, and
// the revived tables drive a passing local run — with the compiled_hits
// and compiled_bytes cache counters accounting for every consumption.
func TestServiceStrategyOpAndCounters(t *testing.T) {
	s := startService(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	si, err := c.Strategy("smartlight", models.SmartLightGoal, "strict")
	if err != nil {
		t.Fatal(err)
	}
	if si.Bytes != len(si.Encoded) || si.Bytes == 0 {
		t.Fatalf("byte count off: Bytes=%d len(Encoded)=%d", si.Bytes, len(si.Encoded))
	}
	if !si.Synth.Winnable || si.Synth.Cooperative {
		t.Fatalf("synth info off: %+v", si.Synth)
	}

	// Decode against an independently built copy of the model and consult
	// locally: the revived tables must pass against the conformant
	// implementation without any further daemon traffic.
	sys := models.SmartLight()
	plant := models.SmartLightPlant(sys)
	cs, err := game.Decode(sys, si.Encoded)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := fmt.Sprintf("%016x", cs.Checksum()); got != si.Checksum {
		t.Fatalf("checksum mismatch: computed %s, shipped %s", got, si.Checksum)
	}
	impl := model.ExtractPlant(sys, plant, "Stub")
	res := texec.Run(cs, tiots.NewDetIUT(impl, tiots.Scale, nil), texec.Options{PlantProcs: plant})
	if res.Verdict != texec.Pass {
		t.Fatalf("local run through shipped strategy must pass: %s", res)
	}

	// A second fetch is a cache hit on the same compiled Result and must
	// ship identical bytes.
	again, err := c.Strategy("smartlight", models.SmartLightGoal, "strict")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(si.Encoded, again.Encoded) {
		t.Fatal("repeated strategy fetches must ship identical bytes")
	}

	// A local run op consults through the compiled tables too.
	if _, err := c.Run(Request{Model: "smartlight", Purpose: models.SmartLightGoal}, nil); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.CompiledHits != 3 {
		t.Fatalf("compiled_hits must count 2 strategy fetches + 1 run, got %+v", st.Cache)
	}
	if st.Cache.CompiledBytes != int64(2*si.Bytes) {
		t.Fatalf("compiled_bytes must count the shipped encodings only, got %+v", st.Cache)
	}

	if _, err := c.Strategy("nosuch", models.SmartLightGoal, ""); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := c.Strategy("smartlight", "control: A<> IUT.Bright and z < 1", "strict"); err == nil {
		t.Fatal("unwinnable purpose must error")
	}
}
