// Package service is the resident test daemon: it loads models once,
// synthesizes strategies on demand behind a content-addressed singleflight
// cache (cache.go), and hosts many concurrent online test sessions over a
// line-JSON control API (protocol.go, session.go). Where the CLIs re-parse
// and re-solve per invocation, the service solves once and plays many —
// the fixpoint cost amortizes across the whole fleet of implementations
// under test, which is the regime of adaptive specification-coverage
// testing at serving scale.
//
// Concurrency model: sessions are connection-scoped and bounded by a
// semaphore — a full daemon answers new connections with an explicit
// "busy" event instead of queuing them (backpressure, not queue collapse).
// Strategy consultation is read-only, so any number of sessions execute
// tests concurrently; solving serializes per model (game.Batch is
// single-threaded) underneath the cache's singleflight, which already
// collapses identical requests to one solve. Drain stops accepting, lets
// in-flight requests finish, then closes every session — clean full-drain
// shutdown for SIGTERM.
package service

import (
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tigatest/internal/campaign"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/obs"
	"tigatest/internal/tctl"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

// Options configure a Service.
type Options struct {
	// MaxSessions bounds concurrent sessions; connections beyond it are
	// answered with a busy event and closed (default 64).
	MaxSessions int
	// Solver configures strategy synthesis.
	Solver game.Options
	// Scale is ticks per model time unit (default tiots.Scale).
	Scale int64
	// RequestTimeout bounds every request's wall-clock unless the request
	// carries its own deadline_ms (0 = no default bound). Expiry cancels
	// the in-flight solve, answers with a typed "deadline" error and keeps
	// the session usable.
	RequestTimeout time.Duration
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
	// DisableObs turns the observability layer off (ablation E9, `tigad
	// -obs=false`): no latency histograms, no request tracing, no access
	// log. The stats payload then carries no latency section and the
	// trace op returns no spans; responses are unchanged otherwise.
	DisableObs bool
	// Slog, when set, receives structured records: one Info access-log
	// line per request and one Debug record per finished span. Nil keeps
	// structured logging off (tracing still records to the in-memory
	// ring). Ignored when DisableObs is set.
	Slog *slog.Logger
}

// modelEntry is one registered model with its solver state.
type modelEntry struct {
	sys   *model.System
	env   *tctl.ParseEnv
	plant []int
	impl  *model.System // conformant extraction for local runs
	hash  uint64

	// solveMu serializes solves on the batch (game.Batch is not safe for
	// concurrent use). The cache's singleflight already collapses identical
	// requests; this lock only orders solves of distinct purposes on the
	// same model.
	solveMu sync.Mutex
	batch   *game.Batch
}

// Service is the daemon state. Create with New, register models with
// AddModel, then Listen.
type Service struct {
	opts  Options
	cache *flight[cacheKey, *game.Result]
	// cl is the fleet state (nil on a standalone daemon — the nil check is
	// the only branch the baseline request path gains, so a daemon without
	// -peers behaves byte-identically to the pre-cluster service). Set once
	// by EnableCluster before Listen, read lock-free afterwards.
	cl *clusterState

	mu       sync.Mutex
	models   map[string]*modelEntry
	sessions map[*session]struct{}
	ln       net.Listener
	draining bool

	wg sync.WaitGroup // accept loop + live sessions

	sessActive atomic.Int64
	sessPeak   atomic.Int64
	sessTotal  atomic.Int64
	sessBusy   atomic.Int64
	requests   atomic.Int64
	testRuns   atomic.Int64
	timeouts   atomic.Int64 // requests answered with the "deadline" error kind
	sessPanics atomic.Int64 // request handler panics recovered into responses

	// Compiled-strategy telemetry. Cached results carry their compiled
	// decision tables (built once per Result, shared by every consumer), so
	// these count consumption, not storage: compiledHits is the number of
	// requests served through a compiled strategy (run executions and
	// strategy-encoding fetches), compiledBytes the total canonical wire
	// bytes shipped to clients by the strategy op.
	compiledHits  atomic.Int64
	compiledBytes atomic.Int64

	solves             atomic.Int64
	skeletonHits       atomic.Int64
	skeletonMisses     atomic.Int64
	skeletonCoreHits   atomic.Int64
	skeletonCoreMisses atomic.Int64

	// Per-phase solver wall-clock, folded from game.Stats by noteSolve.
	solveNanos     atomic.Int64
	exploreNanos   atomic.Int64
	condenseNanos  atomic.Int64
	propagateNanos atomic.Int64
	overlayNanos   atomic.Int64

	// obs is the observability layer; nil when Options.DisableObs is set
	// (every obsState accessor is nil-safe, so instrumentation sites need
	// no guards).
	obs *obsState
}

// New creates a service with no models registered.
func New(opts Options) *Service {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 64
	}
	if opts.Scale <= 0 {
		opts.Scale = tiots.Scale
	}
	s := &Service{
		opts:     opts,
		cache:    newFlight[cacheKey, *game.Result](),
		models:   map[string]*modelEntry{},
		sessions: map[*session]struct{}{},
	}
	if !opts.DisableObs {
		// The trace-ID seed only needs uniqueness across daemon restarts,
		// not unpredictability.
		s.obs = newObsState(opts.Slog, uint64(time.Now().UnixNano()), 0)
	}
	return s
}

func (s *Service) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// AddModel registers a model under sys.Name. plant lists the
// implementation-side process indices (nil = texec.GuessPlantProcs). The
// model must not change after registration (its structural hash becomes
// part of every cache key).
func (s *Service) AddModel(sys *model.System, env *tctl.ParseEnv, plant []int) error {
	if err := sys.Validate(); err != nil {
		return err
	}
	if len(plant) == 0 {
		plant = texec.GuessPlantProcs(sys)
	}
	if len(plant) == 0 {
		return fmt.Errorf("service: model %s has no plant processes", sys.Name)
	}
	batch, err := game.NewBatch(sys, s.opts.Solver)
	if err != nil {
		return err
	}
	me := &modelEntry{
		sys:   sys,
		env:   env,
		plant: plant,
		impl:  model.ExtractPlant(sys, plant, "Stub"),
		hash:  sys.Hash(),
		batch: batch,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.models[sys.Name]; dup {
		return fmt.Errorf("service: duplicate model %s", sys.Name)
	}
	s.models[sys.Name] = me
	return nil
}

// modelByName looks up a registered model.
func (s *Service) modelByName(name string) (*modelEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	me, ok := s.models[name]
	return me, ok
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting sessions.
func (s *Service) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	s.logf("service: listening on %s", ln.Addr())
	return nil
}

// Addr returns the bound listener address.
func (s *Service) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Service) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.draining
			s.mu.Unlock()
			if done {
				return
			}
			// Transient accept failure (fd exhaustion under overload is
			// the canonical one): back off briefly instead of spinning.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.admit(conn)
	}
}

// admit grants the connection a session slot or answers busy. The session
// semaphore is the registry size bound, checked under the same lock that
// registers the session, so the MaxSessions bound is exact.
func (s *Service) admit(conn net.Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeEvent(conn, &Response{Event: "draining", Error: "draining"})
		conn.Close()
		return
	}
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		s.sessBusy.Add(1)
		writeEvent(conn, &Response{Event: "busy", Error: "busy"})
		conn.Close()
		return
	}
	ss := newSession(s, conn)
	s.sessions[ss] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()

	s.sessTotal.Add(1)
	active := s.sessActive.Add(1)
	for {
		peak := s.sessPeak.Load()
		if active <= peak || s.sessPeak.CompareAndSwap(peak, active) {
			break
		}
	}
	go func() {
		defer func() {
			s.mu.Lock()
			delete(s.sessions, ss)
			s.mu.Unlock()
			s.sessActive.Add(-1)
			s.wg.Done()
		}()
		ss.serve()
	}()
}

// Drain performs graceful shutdown: stop accepting, close idle sessions,
// let in-flight requests finish (their sessions close right after the
// response), and return once every session is gone.
func (s *Service) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	ln := s.ln
	for ss := range s.sessions {
		ss.interruptIfIdle()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	if s.cl != nil {
		// Peer forwards were refused (typed draining) from the moment the
		// flag flipped — before the in-flight local sessions above finished.
		// All that remains is dropping the pooled outbound links.
		s.cl.closeLinks()
	}
	s.logf("service: drained")
}

// Draining reports whether Drain has been initiated.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// noteSolve folds a completed solve's statistics into the service
// aggregates and observes its wall-clock in the solve histogram.
func (s *Service) noteSolve(st game.Stats) {
	s.solves.Add(1)
	s.skeletonHits.Add(int64(st.SkeletonHits))
	s.skeletonMisses.Add(int64(st.SkeletonMisses))
	s.skeletonCoreHits.Add(int64(st.SkeletonCoreHits))
	s.skeletonCoreMisses.Add(int64(st.SkeletonCoreMisses))
	s.solveNanos.Add(int64(st.Duration))
	s.exploreNanos.Add(int64(st.ExploreDuration))
	s.condenseNanos.Add(int64(st.CondenseDuration))
	s.propagateNanos.Add(int64(st.PropagateDuration))
	s.overlayNanos.Add(int64(st.OverlayDuration))
	s.obs.solve().Observe(st.Duration)
}

// noteCompile compiles a freshly solved winnable strategy under a compile
// span and observes the wall time of that call: Compile validates the
// strategy and allocates its table, while each node's rows are built on
// the node's first consultation, or all at once by the encode span of a
// strategy fetch (CompiledStrategy.CompileDuration sums those builds).
// Only called with observability enabled, from the solve closure that
// produced res, so every Result is observed at most once (CompiledStrategy
// itself compiles once and caches), and never for mutant-analysis solves,
// whose strategies nobody consults. With observability disabled
// compilation happens on first use.
func (s *Service) noteCompile(res *game.Result, ctx obs.SpanContext) {
	if s.obs == nil || res == nil || !res.Winnable {
		return
	}
	sp := s.obs.tracer().StartSpan(ctx, "compile")
	t0 := time.Now()
	if _, err := res.CompiledStrategy(); err != nil {
		sp.SetErr(err.Error())
	} else {
		s.obs.compile().Observe(time.Since(t0))
	}
	sp.End()
}

// solveVia is the campaign planner's SolveVia hook: it content-addresses
// every per-goal solve into the shared strategy cache (so K concurrent
// campaigns on one model pay each goal's solve once, and campaign goals
// prime the cache for later synthesize/run requests of the same purposes).
// done is the requester's withdrawal signal (the request deadline) and
// tctx its trace context (see cachedSolve).
func (s *Service) solveVia(me *modelEntry, done <-chan struct{}, tctx obs.SpanContext) func(campaign.SolveKey, func() (*game.Result, error)) (*game.Result, error) {
	return func(key campaign.SolveKey, solve func() (*game.Result, error)) (*game.Result, error) {
		ck := cacheKey{
			model:   me.hash,
			sig:     key.Signature,
			purpose: key.Purpose,
			edge:    key.EdgeID,
			coop:    key.Cooperative,
			edits:   key.EditHash,
		}
		return s.cachedSolve(me, ck, done, tctx, solve)
	}
}

// cachedSolve resolves key through the strategy cache, running solve on a
// miss. Solves serialize on the model's mutex — game.Batch is
// single-threaded, and campaigns share the model's batch to share its
// explored core skeleton — with the batch's cancel hook bound to the
// cache's cancel channel, which closes only when every waiting requester
// has withdrawn. done is the requester's withdrawal signal (the request
// deadline). tctx is the request's trace context; nil-safe obs plumbing
// means a zero SpanContext (observability off) costs nothing.
func (s *Service) cachedSolve(me *modelEntry, key cacheKey, done <-chan struct{}, tctx obs.SpanContext, solve func() (*game.Result, error)) (*game.Result, error) {
	return s.cache.get(key, done, func(cancel <-chan struct{}) (*game.Result, error) {
		me.solveMu.Lock()
		defer me.solveMu.Unlock()
		me.batch.SetCancel(cancel)
		defer me.batch.SetCancel(nil)
		sp := s.obs.tracer().StartSpan(tctx, "solve")
		sp.SetNote(key.purpose)
		res, err := solve()
		if err == nil {
			s.noteSolve(res.Stats)
		} else {
			sp.SetErr(err.Error())
		}
		sp.End()
		// A mutant-analysis solve (edit-keyed) is read for its verdict
		// only: its strategy is never fetched or executed, so compiling it
		// here would only lengthen the model's critical section.
		if err == nil && key.edits == 0 {
			s.noteCompile(res, tctx)
		}
		return res, err
	}, s.cacheNote(tctx, key.purpose))
}

// cacheNote returns the cache-outcome callback handed to cache.get: an
// event-style span named "cache.<outcome>" ("hit", "join" or "miss")
// under the request's trace. A join span marks the moment the requester
// attached to an in-flight solve — the wait itself is covered by that
// solve's span. Nil when observability is disabled, so the cache skips
// the callback entirely.
func (s *Service) cacheNote(tctx obs.SpanContext, purpose string) func(outcome string) {
	if s.obs == nil {
		return nil
	}
	return func(outcome string) {
		sp := s.obs.tracer().StartSpan(tctx, "cache."+outcome)
		sp.SetNote(purpose)
		sp.End()
	}
}

// synthesize resolves a purpose to a strategy through the cache. sig is
// the purpose's extrapolation signature (computed once by the caller, who
// also reports it); mode is "auto" (strict first, cooperative fallback),
// "strict" or "cooperative". done, when non-nil, withdraws this requester
// from the solve (ErrDeadline); the solve itself is canceled only when its
// last waiter withdraws.
func (s *Service) synthesize(me *modelEntry, f *tctl.Formula, sig, mode string, done <-chan struct{}, tctx obs.SpanContext) (*game.Result, error) {
	solve := func(coop bool) (*game.Result, error) {
		key := cacheKey{
			model:   me.hash,
			sig:     sig,
			purpose: f.String(),
			edge:    -1,
			coop:    coop,
		}
		return s.cachedSolve(me, key, done, tctx, func() (*game.Result, error) {
			return me.batch.Solve(f, coop)
		})
	}
	switch mode {
	case "", "auto":
		res, err := solve(false)
		if err != nil || res.Winnable {
			return res, err
		}
		return solve(true)
	case "strict":
		return solve(false)
	case "cooperative":
		return solve(true)
	default:
		return nil, fmt.Errorf("service: unknown mode %q (use auto, strict or cooperative)", mode)
	}
}

// StatsSnapshot assembles the stats-endpoint payload (also used by
// cmd/tigad for its exit report).
func (s *Service) StatsSnapshot() *Stats {
	st := &Stats{
		Cache: s.cache.stats(),
		Sessions: SessionStats{
			Active:          s.sessActive.Load(),
			Peak:            s.sessPeak.Load(),
			Total:           s.sessTotal.Load(),
			Busy:            s.sessBusy.Load(),
			Requests:        s.requests.Load(),
			TestRuns:        s.testRuns.Load(),
			Timeouts:        s.timeouts.Load(),
			Cancellations:   s.cache.canceled.Load(),
			PanicsRecovered: s.sessPanics.Load() + s.cache.panics.Load(),
		},
		Solver: SolverStats{
			Solves:             s.solves.Load(),
			SkeletonHits:       s.skeletonHits.Load(),
			SkeletonMisses:     s.skeletonMisses.Load(),
			SkeletonCoreHits:   s.skeletonCoreHits.Load(),
			SkeletonCoreMisses: s.skeletonCoreMisses.Load(),
			SolveNanos:         s.solveNanos.Load(),
			ExploreNanos:       s.exploreNanos.Load(),
			CondenseNanos:      s.condenseNanos.Load(),
			PropagateNanos:     s.propagateNanos.Load(),
			OverlayNanos:       s.overlayNanos.Load(),
		},
		Latency: s.HistogramSnapshots(),
	}
	st.Cache.CompiledHits = s.compiledHits.Load()
	st.Cache.CompiledBytes = s.compiledBytes.Load()
	if s.cl != nil {
		st.Cluster = s.cl.snapshot()
		st.Sessions.PanicsRecovered += s.cl.tier2.panics.Load()
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.models))
	for name := range s.models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		me := s.models[name]
		mi := ModelInfo{
			Name:  name,
			Hash:  fmt.Sprintf("%016x", me.hash),
			Procs: len(me.sys.Procs),
		}
		for _, pi := range me.plant {
			mi.Plant = append(mi.Plant, me.sys.Procs[pi].Name)
		}
		st.Models = append(st.Models, mi)
	}
	s.mu.Unlock()
	return st
}
