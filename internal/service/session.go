// Session layer: one accepted connection = one online test session.
//
// The loop alternates decoding a control request and encoding its
// response. Run requests with an inline IUT flip the connection's
// direction mid-request: the daemon becomes the adapter-protocol driver
// (adapter.ClientOn over the session's shared decoder/encoder) and the
// client answers reset/seed/offer/advance against its live implementation;
// the final result line hands control back. Drain closes idle sessions
// immediately and lets a session busy inside a request finish it — the
// response is written, then the connection closes.

package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tigatest/internal/adapter"
	"tigatest/internal/campaign"
	"tigatest/internal/game"
	"tigatest/internal/obs"
	"tigatest/internal/tctl"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

// Error kinds on failed responses (Response.ErrorKind).
const (
	kindDeadline = "deadline"
	kindBudget   = "budget"
	kindPanic    = "panic"
	kindDraining = "draining"
)

// session is one control connection.
type session struct {
	s    *Service
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder

	mu     sync.Mutex
	active bool // a request is being handled right now

	// dirty marks the session's framing as untrustworthy (an inline run's
	// wire stream broke mid-frame): the current response is still written,
	// then the serve loop closes the connection instead of decoding
	// whatever half-frame the peer left behind. Only the serve goroutine
	// touches it.
	dirty bool
}

func newSession(s *Service, conn net.Conn) *session {
	return &session{
		s:    s,
		conn: conn,
		dec:  json.NewDecoder(bufio.NewReader(conn)),
		enc:  json.NewEncoder(conn),
	}
}

// writeEvent writes a single greeting-style event to a raw connection
// (used before a session exists: busy/draining rejections).
func writeEvent(conn net.Conn, resp *Response) {
	_ = json.NewEncoder(conn).Encode(resp)
}

// interruptIfIdle kicks an idle session out of its blocking read by
// expiring the read deadline; a request already buffered on the stream is
// still returned by the pending Decode, handled, and answered — beginRequest
// clears the deadline again, so even a request that races the drain gets
// its response before the session closes (sessions re-check Draining after
// every response). In-flight sessions are left alone. Called by Drain with
// the service lock held.
func (ss *session) interruptIfIdle() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if !ss.active {
		_ = ss.conn.SetReadDeadline(time.Now())
	}
}

// beginRequest marks the session in flight and clears any drain-set read
// deadline (inline runs read wire replies from the connection). The mutex
// orders it against interruptIfIdle: whichever side runs second leaves the
// connection readable exactly when a request is being handled.
func (ss *session) beginRequest() {
	ss.mu.Lock()
	ss.active = true
	_ = ss.conn.SetReadDeadline(time.Time{})
	ss.mu.Unlock()
}

func (ss *session) endRequest() {
	ss.mu.Lock()
	ss.active = false
	ss.mu.Unlock()
}

// idleHook, when set, runs each time a session has answered a request and
// re-checked Draining, just before it blocks reading the next request.
// Tests use it to order a drain flip after that re-check.
var idleHook atomic.Pointer[func(*Service, *Request)]

// serve runs the session loop until the client disconnects or the service
// drains.
func (ss *session) serve() {
	defer ss.conn.Close()
	defer func(t0 time.Time) { ss.s.obs.sessions().Observe(time.Since(t0)) }(time.Now())
	if err := ss.enc.Encode(&Response{Event: "hello", OK: true}); err != nil {
		return
	}
	for {
		var req Request
		if err := ss.dec.Decode(&req); err != nil {
			return // connection closed (client done, or drain interrupted an idle session)
		}
		ss.beginRequest()
		ss.s.requests.Add(1)
		resp := ss.dispatch(&req)
		err := ss.enc.Encode(resp)
		ss.endRequest()
		if err != nil || ss.dirty || ss.s.Draining() {
			return
		}
		if h := idleHook.Load(); h != nil {
			(*h)(ss.s, &req)
		}
	}
}

func errResp(format string, args ...any) *Response {
	return &Response{Event: "result", Error: fmt.Sprintf(format, args...)}
}

// fired reports whether a done channel has closed (nil = never).
func fired(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// isTimeoutErr reports whether err is (or wraps) a network timeout — the
// shape an expired connection read deadline surfaces as.
func isTimeoutErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// solveErrResp types a failed solve for the client: deadline expiries and
// cancellations map to the retryable "deadline" kind, resource exhaustion
// to "budget"; anything else stays a plain error.
func solveErrResp(err error) *Response {
	switch {
	case errors.Is(err, ErrDeadline), errors.Is(err, game.ErrCanceled):
		return &Response{Event: "result", Error: err.Error(), ErrorKind: kindDeadline}
	case errors.Is(err, game.ErrBudget):
		return &Response{Event: "result", Error: "solve: " + err.Error(), ErrorKind: kindBudget}
	default:
		return errResp("solve: %v", err)
	}
}

// dispatch runs one request under its deadline — the request's deadline_ms,
// else the service's RequestTimeout default — and recovers handler panics
// into typed error responses (one request may die; the daemon and even the
// session must not). The expired deadline does two things: it withdraws the
// request from any solve it is waiting on (the done channel threaded into
// the cache), and it bounds the connection reads of an inline run (the
// read deadline), so neither a slow game nor a stalled peer can pin the
// session slot.
//
// With observability enabled, dispatch also opens the request's root span
// — adopting the client's trace when the request carries valid trace
// fields, minting a fresh one otherwise — and stamps the local root
// context back onto req.TraceID/SpanID, so every downstream site (solve
// spans, cluster forwards) reads the context straight off the request.
// The stats and trace ops are exempt: a trace request's TraceID is its
// filter, and neither op does traceable work.
func (ss *session) dispatch(req *Request) (resp *Response) {
	start := time.Now()
	var sp *obs.Span
	defer func() {
		if r := recover(); r != nil {
			ss.s.sessPanics.Add(1)
			ss.s.logf("service: panic handling op %q: %v\n%s", req.Op, r, debug.Stack())
			resp = &Response{Event: "result", Error: fmt.Sprintf("internal error: %v", r), ErrorKind: kindPanic}
		}
		if resp != nil && resp.ErrorKind == kindDeadline {
			ss.s.timeouts.Add(1)
		}
		d := time.Since(start)
		ss.s.obs.request().Observe(d)
		if resp != nil && !resp.OK && resp.Error != "" {
			sp.SetErr(resp.Error)
		}
		sp.End()
		ss.s.obs.accessLog(req, resp, req.TraceID, d)
	}()
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = ss.s.opts.RequestTimeout
	}
	var done chan struct{}
	if d > 0 {
		done = make(chan struct{})
		timer := time.AfterFunc(d, func() { close(done) })
		defer timer.Stop()
		_ = ss.conn.SetReadDeadline(time.Now().Add(d))
		defer func() { _ = ss.conn.SetReadDeadline(time.Time{}) }()
	}
	if req.Op != "stats" && req.Op != "trace" {
		if req.TraceID != "" || req.SpanID != "" {
			sp = ss.s.obs.tracer().Adopt(req.TraceID, req.SpanID, "request."+req.Op)
		} else {
			sp = ss.s.obs.tracer().StartTrace("request." + req.Op)
		}
		if ctx := sp.Context(); ctx.Valid() {
			req.TraceID = obs.FormatID(ctx.TraceID)
			req.SpanID = obs.FormatID(ctx.SpanID)
		}
	}
	return ss.handle(req, done)
}

// reqCtx reconstructs the request's root span context from the wire
// fields dispatch stamped. Zero — and thus span-free downstream — when
// observability is disabled and the client sent no trace of its own.
func reqCtx(req *Request) obs.SpanContext {
	tid, ok := obs.ParseID(req.TraceID)
	if !ok {
		return obs.SpanContext{}
	}
	ctx := obs.SpanContext{TraceID: tid}
	if sid, ok := obs.ParseID(req.SpanID); ok {
		ctx.SpanID = sid
	}
	return ctx
}

// handle dispatches one request. done, when non-nil, is the request's
// deadline signal (already armed by dispatch).
func (ss *session) handle(req *Request, done <-chan struct{}) *Response {
	switch req.Op {
	case "stats":
		return &Response{Event: "result", OK: true, Stats: ss.s.StatsSnapshot()}
	case "trace":
		// Serve the retained finished spans; req.TraceID (untouched by
		// dispatch for this op) filters to one trace, req.Limit caps the
		// result. Empty spans with OK simply means observability is off or
		// the ring has rotated past the trace.
		limit := req.Limit
		if limit <= 0 {
			limit = 128
		}
		return &Response{Event: "result", OK: true, Spans: ss.s.TraceRecent(req.TraceID, limit)}
	case "synthesize":
		rv, resp := ss.resolve(req, done)
		if resp != nil {
			return resp
		}
		return &Response{Event: "result", OK: true, Synth: rv.info}
	case "strategy":
		return ss.strategy(req, done)
	case "run":
		return ss.run(req, done)
	case "campaign":
		return ss.campaign(req, done)
	case "peer_ping":
		return ss.peerPing()
	case "peer_strategy":
		return ss.peerStrategy(req, done)
	default:
		return errResp("unknown op %q (use synthesize, strategy, run, campaign, stats or trace)", req.Op)
	}
}

// resolved is one strategy resolution: the synthesis outcome plus the
// material to serve it — a local solver Result, or (for peer-fetched
// strategies) the owner's compiled tables and their canonical encoding.
// Exactly one of res/cs is the execution source; both are nil only for
// refuted (non-winnable) purposes.
type resolved struct {
	me   *modelEntry
	info *SynthInfo
	res  *game.Result           // local solve (nil when peer-fetched)
	cs   *game.CompiledStrategy // peer-fetched compiled tables
	enc  []byte                 // ... and their canonical wire encoding
}

// encoded returns the canonical compiled wire encoding and its checksum,
// re-shipping the owner's bytes for peer-fetched strategies and compiling
// locally otherwise.
func (rv *resolved) encoded() ([]byte, string, error) {
	if rv.cs != nil && rv.enc != nil {
		return rv.enc, fmt.Sprintf("%016x", rv.cs.Checksum()), nil
	}
	cs, err := rv.res.CompiledStrategy()
	if err != nil {
		return nil, "", err
	}
	data := cs.Encode()
	return data, fmt.Sprintf("%016x", cs.Checksum()), nil
}

// consultant picks the execution strategy: compiled decision tables when
// available (shared per cached Result locally, shipped by the owner for
// peer-fetched strategies), the interpreted strategy as the fallback for
// the non-reachability purposes compilation rejects.
func (rv *resolved) consultant(s *Service) game.Consultant {
	if rv.cs != nil {
		s.cache.compiledHits.Add(1)
		return rv.cs
	}
	consult := rv.res.Consultant()
	if _, ok := consult.(*game.CompiledStrategy); ok {
		s.cache.compiledHits.Add(1)
	}
	return consult
}

// synthInfo assembles the synthesis outcome descriptor for a local solve.
func synthInfo(modelName string, me *modelEntry, sig string, f *tctl.Formula, mode string, res *game.Result) *SynthInfo {
	if mode == "" {
		mode = "auto"
	}
	info := &SynthInfo{
		Model:       modelName,
		ModelHash:   fmt.Sprintf("%016x", me.hash),
		Signature:   sig,
		Purpose:     f.String(),
		Mode:        mode,
		Winnable:    res.Winnable,
		Nodes:       res.Stats.Nodes,
		Transitions: res.Stats.Transitions,
	}
	if res.Winnable {
		info.Cooperative = res.Strategy.Cooperative()
	}
	return info
}

// localResolve synthesizes through the first-tier strategy cache on this
// daemon. A non-nil Response reports the failure; otherwise the resolved
// describes the outcome, winnable or not.
func (s *Service) localResolve(me *modelEntry, f *tctl.Formula, sig string, req *Request, done <-chan struct{}) (*resolved, *Response) {
	res, err := s.synthesize(me, f, sig, req.Mode, done, reqCtx(req))
	if err != nil {
		return nil, solveErrResp(err)
	}
	return &resolved{me: me, info: synthInfo(req.Model, me, sig, f, req.Mode, res), res: res}, nil
}

// resolve looks up the model, parses the purpose and synthesizes —
// locally on a standalone daemon, through the cluster's ownership ring on
// a fleet member (the owner solves, everyone else forwards and caches).
func (ss *session) resolve(req *Request, done <-chan struct{}) (*resolved, *Response) {
	// The consult histogram measures the whole resolution — parse,
	// signature, cache path (hit, join or solve), and any peer forward —
	// per request, NOT per strategy consultation during test execution
	// (MoveAt stays observation-free; see DESIGN.md).
	defer func(t0 time.Time) { ss.s.obs.consult().Observe(time.Since(t0)) }(time.Now())
	me, ok := ss.s.modelByName(req.Model)
	if !ok {
		return nil, errResp("unknown model %q", req.Model)
	}
	f, err := tctl.Parse(me.env, req.Purpose)
	if err != nil {
		return nil, errResp("purpose: %v", err)
	}
	sig := game.ExtrapolationSignature(me.sys, f)
	if ss.s.cl != nil {
		return ss.s.clusterResolve(me, f, sig, req, done)
	}
	return ss.s.localResolve(me, f, sig, req, done)
}

// peerPing answers a fleet health probe. A draining daemon refuses with
// the typed draining kind — probes must see shutdown as down, not as a
// healthy answer.
func (ss *session) peerPing() *Response {
	if ss.s.Draining() {
		if ss.s.cl != nil {
			ss.s.cl.drainRejects.Add(1)
		}
		return &Response{Event: "result", Error: "draining", ErrorKind: kindDraining}
	}
	pi := &PeerInfo{}
	if ss.s.cl != nil {
		pi.ID = ss.s.cl.opts.Tracker.Self().ID
	}
	return &Response{Event: "result", OK: true, Peer: pi}
}

// peerStrategy answers a consistent-hash miss forward: resolve the key
// locally — ALWAYS locally, never re-forwarded, so disagreeing membership
// views can cost an extra solve but never a forwarding loop — and ship
// the compiled wire encoding. A draining daemon refuses first with the
// typed draining kind (the drain bugfix: a forward must not land in a
// daemon that is tearing down; the forwarder treats the answer as
// owner-down and solves locally).
func (ss *session) peerStrategy(req *Request, done <-chan struct{}) *Response {
	if ss.s.Draining() {
		if ss.s.cl != nil {
			ss.s.cl.drainRejects.Add(1)
		}
		return &Response{Event: "result", Error: "draining: forward refused during shutdown", ErrorKind: kindDraining}
	}
	me, ok := ss.s.modelByName(req.Model)
	if !ok {
		return errResp("unknown model %q", req.Model)
	}
	if req.ModelHash != "" && req.ModelHash != fmt.Sprintf("%016x", me.hash) {
		return errResp("model hash mismatch: forwarder has %s, this daemon has %016x", req.ModelHash, me.hash)
	}
	f, err := tctl.Parse(me.env, req.Purpose)
	if err != nil {
		return errResp("purpose: %v", err)
	}
	sig := game.ExtrapolationSignature(me.sys, f)
	rv, resp := ss.s.localResolve(me, f, sig, req, done)
	if resp != nil {
		return resp
	}
	if ss.s.cl != nil {
		ss.s.cl.peerServes.Add(1)
	}
	si := &StrategyInfo{Synth: *rv.info}
	if rv.info.Winnable {
		sp := ss.s.obs.tracer().StartSpan(reqCtx(req), "encode")
		data, sum, err := rv.encoded()
		if err != nil {
			sp.SetErr(err.Error())
			sp.End()
			return errResp("compile: %v", err)
		}
		sp.End()
		si.Bytes = len(data)
		si.Checksum = sum
		si.Encoded = data
	}
	return &Response{Event: "result", OK: true, Strategy: si}
}

// strategy synthesizes (through the cache), compiles, and ships the
// compiled decision tables in their canonical wire encoding, so the client
// can decode them against its own copy of the model and consult locally.
// Compilation happens once per cached Result and is shared with every run
// request on the same purpose.
func (ss *session) strategy(req *Request, done <-chan struct{}) *Response {
	rv, resp := ss.resolve(req, done)
	if resp != nil {
		return resp
	}
	if !rv.info.Winnable {
		return errResp("purpose %s is not winnable under mode %s", rv.info.Purpose, rv.info.Mode)
	}
	sp := ss.s.obs.tracer().StartSpan(reqCtx(req), "encode")
	data, sum, err := rv.encoded()
	if err != nil {
		sp.SetErr(err.Error())
		sp.End()
		return errResp("compile: %v", err)
	}
	sp.End()
	ss.s.cache.compiledHits.Add(1)
	ss.s.cache.compiledBytes.Add(int64(len(data)))
	return &Response{Event: "result", OK: true, Strategy: &StrategyInfo{
		Synth:    *rv.info,
		Bytes:    len(data),
		Checksum: sum,
		Encoded:  data,
	}}
}

// run synthesizes (through the cache) and executes the strategy against
// the requested implementation.
func (ss *session) run(req *Request, done <-chan struct{}) *Response {
	rv, resp := ss.resolve(req, done)
	if resp != nil {
		return resp
	}
	me, info := rv.me, rv.info
	if !info.Winnable {
		return errResp("purpose %s is not winnable under mode %s", info.Purpose, info.Mode)
	}

	var factory campaign.IUTFactory
	var wire *adapter.Client
	switch req.IUT {
	case "", "local":
		factory = campaign.LocalIUT(me.impl, ss.s.opts.Scale, nil)
	case "inline":
		// The client hosts the IUT on this very connection: the daemon
		// drives the adapter protocol through the session's shared
		// decoder/encoder. One wire client serves every repeat (texec
		// resets it per run; the per-repeat seed is forwarded first).
		// Wire reads are bounded by the request deadline dispatch armed on
		// the connection, so a stalled peer cannot pin the slot.
		wire = adapter.ClientOn(ss.dec, ss.enc)
		factory = func(seed int64) (tiots.IUT, func(), error) {
			if err := wire.Seed(seed); err != nil {
				return nil, nil, err
			}
			return wire, nil, nil
		}
	default:
		return errResp("unknown iut %q (use local or inline)", req.IUT)
	}

	consult := rv.consultant(ss.s)
	runner := &campaign.Runner{
		Strategy: consult,
		Exec:     texec.Options{PlantProcs: me.plant, Scale: ss.s.opts.Scale, Cancel: done},
	}
	repeats := req.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	tally := runner.RunCell(factory, repeats, seed)
	ss.s.testRuns.Add(int64(repeats))

	if wire != nil && wire.Err() != nil {
		// The inline wire stream broke mid-run: a peer stall that hit the
		// request deadline, or a vanished client. Either way the session's
		// framing is gone — answer, then close (dirty).
		ss.dirty = true
		if isTimeoutErr(wire.Err()) || fired(done) {
			return &Response{Event: "result", Error: "deadline exceeded during inline run", ErrorKind: kindDeadline}
		}
		return errResp("inline run: transport: %v", wire.Err())
	}
	if fired(done) {
		return &Response{Event: "result", Error: "deadline exceeded during run", ErrorKind: kindDeadline}
	}

	run := &RunInfo{
		Synth:   *info,
		Verdict: tally.Verdict().String(),
		Pass:    tally.Pass,
		Fail:    tally.Fail,
		Incon:   tally.Incon,
	}
	for _, rc := range tally.Reasons {
		run.Reasons = append(run.Reasons, ReasonCount{Reason: rc.Reason, Count: rc.Count})
	}
	return &Response{Event: "result", OK: true, Run: run}
}

// campaign runs a full coverage campaign on the registered model and
// returns the canonical report, compacted onto the response line. Per-goal
// solves route through the service strategy cache on the model's shared
// batch (Service.solveVia): concurrent campaigns on one model pay each
// goal's solve once — the second camper joins the first's in-flight solve
// — and every solved goal stays warm for later synthesize/run requests.
func (ss *session) campaign(req *Request, done <-chan struct{}) *Response {
	me, ok := ss.s.modelByName(req.Model)
	if !ok {
		return errResp("unknown model %q", req.Model)
	}
	coverage := req.Coverage
	if coverage == "" {
		coverage = "edge"
	}
	cov, err := campaign.ParseCoverage(coverage)
	if err != nil {
		return errResp("%v", err)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	solver := ss.s.opts.Solver
	solver.Cancel = done // planner-level polls; per-solve cancel comes from the cache
	rep, err := campaign.Run(me.sys, me.env, campaign.Options{
		Coverage:    cov,
		Plant:       me.plant,
		Mutants:     req.Mutants,
		Workers:     req.Workers,
		Repeats:     req.Repeats,
		Seed:        seed,
		Solver:      solver,
		Exec:        texec.Options{Scale: ss.s.opts.Scale, Cancel: done},
		Batch:       me.batch,
		SolveVia:    ss.s.solveVia(me, done, reqCtx(req)),
		ObserveCell: ss.s.obs.cellObserver(),
	})
	if err != nil {
		if errors.Is(err, ErrDeadline) || errors.Is(err, game.ErrCanceled) {
			return &Response{Event: "result", Error: "campaign: " + err.Error(), ErrorKind: kindDeadline}
		}
		return errResp("campaign: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, false); err != nil {
		return errResp("campaign: %v", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		return errResp("campaign: %v", err)
	}
	return &Response{Event: "result", OK: true, Report: json.RawMessage(compact.Bytes())}
}
