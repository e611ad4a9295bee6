package service

import (
	"bytes"
	"log/slog"
	"net"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tigatest/internal/cluster"
	"tigatest/internal/faultconn"
	"tigatest/internal/models"
	"tigatest/internal/obs"
)

// requiredHistograms are the families the metrics endpoint must always
// expose with observability enabled (the ISSUE's acceptance floor is six;
// the daemon ships seven).
var requiredHistograms = []string{
	"tigad_request_duration_seconds",
	"tigad_solve_duration_seconds",
	"tigad_consult_duration_seconds",
	"tigad_session_duration_seconds",
	"tigad_peer_forward_duration_seconds",
	"tigad_campaign_cell_duration_seconds",
	"tigad_compile_duration_seconds",
}

// TestMetricsHistograms: after real traffic the metrics handler serves the
// exposition with the right Content-Type, every histogram family present
// with internally consistent _bucket/_sum/_count series, and the whole
// document passing the exposition lint.
func TestMetricsHistograms(t *testing.T) {
	s := startService(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Synthesize("smartlight", models.SmartLightGoal, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Strategy("smartlight", models.SmartLightGoal, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Request{Model: "smartlight", Purpose: models.SmartLightGoal}, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()

	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != MetricsContentType {
		t.Errorf("Content-Type = %q, want %q", got, MetricsContentType)
	}
	out := rec.Body.String()
	if err := obs.LintExposition([]byte(out)); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, out)
	}

	for _, fam := range requiredHistograms {
		if !strings.Contains(out, "# TYPE "+fam+" histogram") {
			t.Errorf("missing histogram family %s", fam)
			continue
		}
		inf := famValue(t, out, fam+`_bucket{le="+Inf"}`)
		count := famValue(t, out, fam+"_count")
		if inf != count {
			t.Errorf("%s: +Inf bucket %v != count %v", fam, inf, count)
		}
		if !strings.Contains(out, fam+"_sum ") {
			t.Errorf("%s: missing _sum", fam)
		}
	}

	// The traffic above must have landed where it belongs.
	if famValue(t, out, `tigad_request_duration_seconds_bucket{le="+Inf"}`) < 3 {
		t.Errorf("request histogram missed the three requests:\n%s", out)
	}
	if famValue(t, out, `tigad_solve_duration_seconds_bucket{le="+Inf"}`) < 1 {
		t.Errorf("solve histogram missed the solve:\n%s", out)
	}
	if famValue(t, out, `tigad_consult_duration_seconds_bucket{le="+Inf"}`) < 3 {
		t.Errorf("consult histogram missed the resolutions:\n%s", out)
	}
	if famValue(t, out, `tigad_compile_duration_seconds_bucket{le="+Inf"}`) < 1 {
		t.Errorf("compile histogram missed the eager compilation:\n%s", out)
	}
}

// famValue extracts one sample's value from the exposition text.
func famValue(t *testing.T, out, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Errorf("sample %q not found", sample)
		return -1
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Errorf("sample %q: %v", sample, err)
		return -1
	}
	return v
}

// TestObsDisabled: the E9 ablation serves counters-only metrics, an empty
// trace op, and a stats payload without the latency section — and still
// answers requests carrying trace fields (they pass through unused).
func TestObsDisabled(t *testing.T) {
	s := startService(t, Options{DisableObs: true})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(Request{
		Op: "synthesize", Model: "smartlight", Purpose: models.SmartLightGoal,
		TraceID: "00000000deadbeef", SpanID: "00000000cafef00d",
	}, nil)
	if err != nil || !resp.OK {
		t.Fatalf("synthesize with trace fields: resp=%+v err=%v", resp, err)
	}
	spans, err := c.Trace("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 {
		t.Errorf("disabled observability must record no spans, got %d", len(spans))
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Latency != nil {
		t.Errorf("disabled observability must not ship latency snapshots")
	}
	var buf bytes.Buffer
	if err := s.WriteMetricsTo(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "histogram") {
		t.Errorf("disabled observability must not expose histograms:\n%s", buf.String())
	}
	if err := obs.LintExposition(buf.Bytes()); err != nil {
		t.Errorf("counters-only exposition must still lint: %v", err)
	}
}

// TestStatsLatencySnapshots: the stats op ships mergeable histogram
// snapshots clients derive percentiles from (tigaload's soak SLO path).
func TestStatsLatencySnapshots(t *testing.T) {
	s := startService(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Synthesize("smartlight", models.SmartLightGoal, ""); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Latency) != len(requiredHistograms) {
		t.Fatalf("want %d latency snapshots, got %d", len(requiredHistograms), len(st.Latency))
	}
	var req *obs.Snapshot
	for i := range st.Latency {
		if st.Latency[i].Name == "tigad_request_duration_seconds" {
			req = &st.Latency[i]
		}
	}
	if req == nil {
		t.Fatal("request histogram snapshot missing from stats")
	}
	if req.Count < 1 {
		t.Fatalf("request snapshot count = %d, want >= 1", req.Count)
	}
	if q := req.Quantile(0.99); q < 0 {
		t.Fatalf("p99 = %v, want non-negative", q)
	}
	if st.Solver.SolveNanos <= 0 {
		t.Errorf("solver phase accounting missing: solve_nanos = %d", st.Solver.SolveNanos)
	}
	if st.Solver.SolveNanos < st.Solver.PropagateNanos {
		t.Errorf("propagate (%d ns) cannot exceed total solve (%d ns)",
			st.Solver.PropagateNanos, st.Solver.SolveNanos)
	}
}

// syncWriter serializes writes from concurrent sessions into one buffer.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestAccessLog: with a structured logger configured, every request emits
// one Info access line carrying the op, the trace id and the duration.
func TestAccessLog(t *testing.T) {
	var out syncWriter
	logger := slog.New(slog.NewTextHandler(&out, &slog.HandlerOptions{Level: slog.LevelInfo}))
	s := startService(t, Options{Slog: logger})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Synthesize("smartlight", models.SmartLightGoal, ""); err != nil {
		t.Fatal(err)
	}
	c.Close()
	log := out.String()
	for _, want := range []string{"msg=request", "op=synthesize", "trace_id=", "duration=", "ok=true"} {
		if !strings.Contains(log, want) {
			t.Errorf("access log missing %q:\n%s", want, log)
		}
	}
}

// TestTraceSpansLocal: one synthesize leaves a coherent local trace — the
// root request span plus cache and solve children, all sharing one trace
// id — and the trace op filter serves exactly that trace.
func TestTraceSpansLocal(t *testing.T) {
	s := startService(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const traceID = "00000000deadbeef"
	resp, err := c.Do(Request{
		Op: "synthesize", Model: "smartlight", Purpose: models.SmartLightGoal,
		TraceID: traceID,
	}, nil)
	if err != nil || !resp.OK {
		t.Fatalf("synthesize: resp=%+v err=%v", resp, err)
	}
	spans, err := c.Trace(traceID, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, sp := range spans {
		if sp.TraceID != traceID {
			t.Errorf("span %s leaked into trace filter %s", sp.TraceID, traceID)
		}
		names[sp.Name]++
	}
	for _, want := range []string{"request.synthesize", "cache.miss", "solve", "compile"} {
		if names[want] == 0 {
			t.Errorf("trace %s missing span %q (got %v)", traceID, want, names)
		}
	}
	// A second identical request hits the cache: same trace family, no new
	// solve span.
	const traceID2 = "00000000deadbee2"
	if resp, err := c.Do(Request{
		Op: "synthesize", Model: "smartlight", Purpose: models.SmartLightGoal,
		TraceID: traceID2,
	}, nil); err != nil || !resp.OK {
		t.Fatalf("second synthesize: resp=%+v err=%v", resp, err)
	}
	spans, err = c.Trace(traceID2, 0)
	if err != nil {
		t.Fatal(err)
	}
	names = map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
	}
	if names["cache.hit"] == 0 {
		t.Errorf("repeat request must record a cache.hit span, got %v", names)
	}
	if names["solve"] != 0 {
		t.Errorf("repeat request must not re-solve, got %v", names)
	}
}

// TestFleetTracePropagation is the acceptance pin for cross-daemon
// tracing: a synthesize sent to a NON-owner under mild link chaos
// (latency and fragmentation only — the forward must succeed, not fall
// back) yields spans on both daemons sharing the originating trace id:
// the forwarder's request.synthesize and forward spans, and the owner's
// request.peer_strategy and solve spans.
func TestFleetTracePropagation(t *testing.T) {
	var dials int64
	var mu sync.Mutex
	wrap := func(c net.Conn) net.Conn {
		mu.Lock()
		dials++
		seed := int64(0xABBA) + dials*0x9E37
		mu.Unlock()
		return faultconn.Wrap(c, faultconn.Options{
			Seed:      seed,
			LatencyP:  0.1,
			FragmentP: 0.4,
		})
	}
	svcs := startFleet(t, 3, wrap, cluster.TrackerOptions{})
	owner := fleetOwner(t, svcs, models.SmartLightGoal, "auto")
	requester := (owner + 1) % 3

	c, err := Dial(svcs[requester].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const traceID = "0000feedfacebeef"
	resp, err := c.Do(Request{
		Op: "synthesize", Model: "smartlight", Purpose: models.SmartLightGoal,
		TraceID: traceID,
	}, nil)
	if err != nil || !resp.OK {
		t.Fatalf("forwarded synthesize: resp=%+v err=%v", resp, err)
	}
	if fwd := svcs[requester].cl.forwards.Load(); fwd != 1 {
		t.Fatalf("want exactly one forward, got %d", fwd)
	}
	if fb := svcs[requester].cl.fallbacks.Load(); fb != 0 {
		t.Fatalf("forward fell back to a local solve (%d); the trace pin needs a clean forward", fb)
	}

	spanNames := func(s *Service) map[string]int {
		names := map[string]int{}
		for _, sp := range s.TraceRecent(traceID, 0) {
			if sp.TraceID != traceID {
				t.Fatalf("trace filter leaked %s", sp.TraceID)
			}
			names[sp.Name]++
		}
		return names
	}
	reqNames := spanNames(svcs[requester])
	for _, want := range []string{"request.synthesize", "forward"} {
		if reqNames[want] == 0 {
			t.Errorf("requester missing span %q in trace %s (got %v)", want, traceID, reqNames)
		}
	}
	ownNames := spanNames(svcs[owner])
	for _, want := range []string{"request.peer_strategy", "solve"} {
		if ownNames[want] == 0 {
			t.Errorf("owner missing span %q in trace %s (got %v)", want, traceID, ownNames)
		}
	}
	// The third daemon never touched this request.
	bystander := 3 - owner - requester
	if n := len(svcs[bystander].TraceRecent(traceID, 0)); n != 0 {
		t.Errorf("bystander daemon recorded %d spans of trace %s", n, traceID)
	}
}

// TestCampaignCellHistogram: a campaign request fills the cell histogram
// (one observation per executed matrix cell) and the overlay phase
// counter once edge goals plan shared-core.
func TestCampaignCellHistogram(t *testing.T) {
	s := startService(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Campaign(Request{Model: "smartlight", Mutants: 2, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	var cells *obs.Snapshot
	for _, snap := range s.HistogramSnapshots() {
		if snap.Name == "tigad_campaign_cell_duration_seconds" {
			cells = &snap
		}
	}
	if cells == nil || cells.Count == 0 {
		t.Fatalf("campaign cells not observed: %+v", cells)
	}
	st := s.StatsSnapshot()
	if st.Solver.ExploreNanos <= 0 {
		t.Errorf("campaign solves must attribute exploration time, got %d", st.Solver.ExploreNanos)
	}
}

// TestHistogramMergeAcrossDaemons: snapshots from two daemons merge (the
// fleet-rollup path a scraper-less operator uses).
func TestHistogramMergeAcrossDaemons(t *testing.T) {
	var snaps []obs.Snapshot
	for i := 0; i < 2; i++ {
		s := startService(t, Options{})
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Synthesize("smartlight", models.SmartLightGoal, ""); err != nil {
			t.Fatal(err)
		}
		c.Close()
		st, err := func() (*Stats, error) {
			c2, err := Dial(s.Addr())
			if err != nil {
				return nil, err
			}
			defer c2.Close()
			return c2.Stats()
		}()
		if err != nil {
			t.Fatal(err)
		}
		for _, snap := range st.Latency {
			if snap.Name == "tigad_request_duration_seconds" {
				snaps = append(snaps, snap)
			}
		}
	}
	if len(snaps) != 2 {
		t.Fatalf("want 2 request snapshots, got %d", len(snaps))
	}
	total := snaps[0].Count + snaps[1].Count
	if err := snaps[0].Merge(snaps[1]); err != nil {
		t.Fatal(err)
	}
	if snaps[0].Count != total {
		t.Fatalf("merged count %d, want %d", snaps[0].Count, total)
	}
}

// TestObsOverheadBound guards the instrumentation cost at the request
// layer: the enabled daemon's cheap-path request (a cache hit) must stay
// within the same order of magnitude as the disabled one. The strict 3%
// solver-bench bound lives in CI (BenchmarkCampaignPlan / BenchmarkMoveAt
// comparisons); this is the smoke version that runs everywhere.
func TestObsOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	timeHits := func(opts Options) time.Duration {
		s := startService(t, opts)
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Synthesize("smartlight", models.SmartLightGoal, ""); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		for i := 0; i < 200; i++ {
			if _, err := c.Synthesize("smartlight", models.SmartLightGoal, ""); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	on := timeHits(Options{})
	off := timeHits(Options{DisableObs: true})
	// Loose 5x bound: the point is catching an accidental O(n) in the hot
	// path (per-request ring scans, lock convoys), not micro-benchmarks.
	if on > 5*off {
		t.Errorf("observability overhead too high: on=%v off=%v", on, off)
	}
}

// TestCompileSkipsMutantAnalysis: with observability on, the service
// compiles eagerly only the strategies a client may fetch. A campaign's
// mutant-analysis re-solves (edit-keyed) are read for their verdict alone,
// so the compile histogram counts exactly the winnable solves whose key
// carries no edits.
func TestCompileSkipsMutantAnalysis(t *testing.T) {
	s := startService(t, Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Campaign(Request{Model: "smartlight", Mutants: 4, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	plain, edited := 0, 0
	s.cache.mu.Lock()
	for k, e := range s.cache.entries {
		if e.err != nil || e.res == nil || !e.res.Winnable {
			continue
		}
		if k.edits == 0 {
			plain++
		} else {
			edited++
		}
	}
	s.cache.mu.Unlock()
	if plain == 0 || edited == 0 {
		t.Fatalf("campaign cached %d plain and %d edit-keyed winnable solves; both must be exercised", plain, edited)
	}
	for _, snap := range s.HistogramSnapshots() {
		if snap.Name == "tigad_compile_duration_seconds" {
			if snap.Count != int64(plain) {
				t.Errorf("compile histogram counts %d compilations, want %d (winnable solves without edits; %d edit-keyed skipped)",
					snap.Count, plain, edited)
			}
			return
		}
	}
	t.Fatal("compile histogram missing")
}
