// Fleet integration: consistent-hash ownership of strategy-cache keys and
// peer-to-peer miss forwarding over the existing line-JSON control
// protocol.
//
// A clustered daemon consults the ownership ring (built from the
// membership tracker's alive view, rebuilt whenever membership changes)
// on every synthesize/strategy/run request. The owner resolves locally
// through the ordinary strategy cache; a non-owner forwards the miss to
// the owner with a peer_strategy request, re-verifies the compiled wire
// encoding's checksum on receipt, and retains the decoded tables in a
// second-tier peer cache so later requests for the key never leave the
// daemon again. Forwards are singleflighted per key (K concurrent
// requests on one non-owner cost one round-trip), bounded by the forward
// timeout, and degrade gracefully: an owner that is down, draining, slow
// or serving garbage costs one failed forward and a local solve — never a
// failed request, and never a wedged session slot (the requester's
// deadline withdraws it from the forward exactly like it withdraws from a
// local solve).
//
// Failure detection is two-speed: a failed forward marks the owner down
// immediately (the ring reassigns its keys to the survivors on the next
// request), and the tracker's health probes — peer_ping over the same
// protocol — confirm the failure and notice the recovery, which restores
// the exact previous key assignment (consistent hashing).

package service

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tigatest/internal/cluster"
	"tigatest/internal/game"
	"tigatest/internal/tctl"
)

// ClusterOptions wire a Service into a fleet. Enable with
// Service.EnableCluster before serving traffic.
type ClusterOptions struct {
	// Tracker is the membership view (required). If it has no health
	// probe configured, EnableCluster installs the service's peer_ping
	// probe.
	Tracker *cluster.Tracker
	// ForwardTimeout bounds one peer forward — dial, request, response —
	// and the health probes (default 2s). A forward past it degrades to a
	// local solve.
	ForwardTimeout time.Duration
	// DialWrap, when set, decorates every outbound peer connection
	// (fault injection, instrumentation).
	DialWrap func(net.Conn) net.Conn
}

// clusterState is the per-service fleet state.
type clusterState struct {
	opts ClusterOptions

	mu      sync.Mutex
	ring    *cluster.Ring
	ringVer uint64
	links   map[string]*peerLink // by owner addr

	// tier2 is the second-tier cache: strategies fetched from owning
	// peers, keyed like the first tier (minus the campaign edge — peer
	// forwards carry only parseable purposes).
	tier2 *flight[peerKey, *peerResult]

	peerHits     atomic.Int64 // requests served with peer-fetched material
	forwards     atomic.Int64 // peer_strategy round-trips attempted
	forwardFails atomic.Int64 // ... that failed
	fallbacks    atomic.Int64 // forwards degraded to a local solve
	peerServes   atomic.Int64 // forwards answered as owner
	drainRejects atomic.Int64 // forwards refused while draining
}

// EnableCluster joins the service to a fleet. Call it before the first
// session is admitted (the cluster state is read lock-free on the request
// path); binding the listener first to learn the advertise address is
// fine.
func (s *Service) EnableCluster(opts ClusterOptions) error {
	if opts.Tracker == nil {
		return fmt.Errorf("service: EnableCluster needs a membership tracker")
	}
	if s.cl != nil {
		return fmt.Errorf("service: cluster already enabled")
	}
	if opts.ForwardTimeout <= 0 {
		opts.ForwardTimeout = 2 * time.Second
	}
	s.cl = &clusterState{
		opts:  opts,
		links: map[string]*peerLink{},
		tier2: newFlight[peerKey, *peerResult](),
	}
	// The ring is rebuilt on first use (version 0 never matches ^0).
	s.cl.ringVer = ^uint64(0)
	opts.Tracker.EnsureProbe(s.probePeer)
	return nil
}

// ownerOf resolves the owning member of a strategy key against the
// current alive view, rebuilding the cached ring when membership changed.
func (cl *clusterState) ownerOf(keyHash uint64) (owner cluster.Member, self bool) {
	tr := cl.opts.Tracker
	v := tr.Version()
	cl.mu.Lock()
	if cl.ring == nil || cl.ringVer != v {
		cl.ring = cluster.BuildRing(tr.Alive(), 0)
		cl.ringVer = v
	}
	ring := cl.ring
	cl.mu.Unlock()
	m := ring.Owner(keyHash)
	return m, m.ID == tr.Self().ID
}

// link returns the pooled connection slot for a peer address.
func (cl *clusterState) link(addr string) *peerLink {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	l, ok := cl.links[addr]
	if !ok {
		l = &peerLink{addr: addr}
		cl.links[addr] = l
	}
	return l
}

// closeLinks drops every pooled peer connection (drain teardown).
func (cl *clusterState) closeLinks() {
	cl.mu.Lock()
	links := make([]*peerLink, 0, len(cl.links))
	for _, l := range cl.links {
		links = append(links, l)
	}
	cl.mu.Unlock()
	for _, l := range links {
		l.mu.Lock()
		if l.cli != nil {
			l.cli.Close()
			l.cli = nil
		}
		l.mu.Unlock()
	}
}

// snapshot assembles the stats-endpoint cluster section.
func (cl *clusterState) snapshot() *ClusterStats {
	tr := cl.opts.Tracker
	return &ClusterStats{
		Self:        tr.Self().ID,
		Members:     len(tr.Configured()),
		Alive:       len(tr.Alive()),
		RingVersion: tr.Version(),

		PeerHits:            cl.peerHits.Load(),
		Forwards:            cl.forwards.Load(),
		ForwardFailures:     cl.forwardFails.Load(),
		OwnerLocalFallbacks: cl.fallbacks.Load(),
		PeerServes:          cl.peerServes.Load(),
		DrainRejects:        cl.drainRejects.Load(),
	}
}

// peerLink is one pooled control connection to a peer. Forwards to the
// same peer serialize on it (each bounded by the forward timeout); a
// transport failure drops the connection, and the next forward redials.
type peerLink struct {
	addr string
	mu   sync.Mutex
	cli  *Client
}

// roundTrip performs one peer request under deadline, managing the pooled
// connection. resp is non-nil when the peer answered with a response line
// (protocol-level failure); a nil resp with non-nil err is a transport
// failure.
func (l *peerLink) roundTrip(req *Request, timeout time.Duration, wrap func(net.Conn) net.Conn) (*Response, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cli == nil {
		cli, err := DialWithTimeout(l.addr, timeout, wrap)
		if err != nil {
			return nil, err
		}
		l.cli = cli
	}
	// The connection deadline outlasts the request deadline the owner arms
	// from DeadlineMS: a slow solve must surface as the owner's typed
	// deadline answer (a per-request failure), not as a transport timeout
	// (which reads as owner-down and marks it).
	_ = l.cli.SetDeadline(time.Now().Add(timeout + time.Second))
	resp, err := l.cli.Do(*req, nil)
	_ = l.cli.SetDeadline(time.Time{})
	if err != nil && (resp == nil || resp.ErrorKind == kindDraining) {
		// Transport failure or an owner announcing shutdown: the stream is
		// done either way, drop the pooled connection.
		l.cli.Close()
		l.cli = nil
	}
	return resp, err
}

// probePeer is the tracker's health probe: dial and peer_ping within the
// forward timeout. A draining or vanished daemon fails the probe.
func (s *Service) probePeer(m cluster.Member) error {
	timeout := s.cl.opts.ForwardTimeout
	cli, err := DialWithTimeout(m.Addr, timeout, s.cl.opts.DialWrap)
	if err != nil {
		return err
	}
	defer cli.Close()
	_ = cli.SetDeadline(time.Now().Add(timeout))
	_, err = cli.Ping()
	return err
}

// peerResult is one peer-fetched strategy: the synthesis outcome plus —
// for winnable purposes — the decoded compiled tables and their canonical
// wire encoding (kept so the strategy op re-ships the owner's bytes
// without re-encoding).
type peerResult struct {
	info *SynthInfo
	cs   *game.CompiledStrategy
	enc  []byte
}

type peerKey struct {
	model   uint64
	sig     string
	purpose string
	mode    string
}

// clusterResolve is the clustered strategy-resolution path: local when
// this daemon owns the key, forwarded to the owner otherwise, degraded to
// a local solve when the forward fails. Mirrors localResolve's contract.
func (s *Service) clusterResolve(me *modelEntry, f *tctl.Formula, sig string, req *Request, done <-chan struct{}) (*resolved, *Response) {
	purpose := f.String()
	mode := req.Mode
	if mode == "" {
		mode = "auto"
	}
	owner, isSelf := s.cl.ownerOf(cluster.StrategyKeyHash(me.hash, sig, purpose, mode))
	if isSelf {
		return s.localResolve(me, f, sig, req, done)
	}
	pk := peerKey{model: me.hash, sig: sig, purpose: purpose, mode: mode}
	// The forward ignores the cancel channel: it is bounded by the forward
	// timeout, and its result still warms the tier for the next request.
	pr, err := s.cl.tier2.get(pk, done, func(<-chan struct{}) (*peerResult, error) {
		return s.forwardStrategy(owner, me, req, purpose, mode)
	}, nil)
	if err == nil {
		s.cl.peerHits.Add(1)
		return &resolved{me: me, info: pr.info, cs: pr.cs, enc: pr.enc}, nil
	}
	// Only the requester's own withdrawal is the bare ErrDeadline; an
	// owner's deadline answer arrives wrapped and falls back below.
	if err == ErrDeadline {
		return nil, solveErrResp(fmt.Errorf("%w: during peer forward", ErrDeadline))
	}
	// Owner down, draining, slow, or serving a bad payload: degrade to a
	// local solve — a fleet must never fail a request a single daemon
	// could serve. The solve lands in the ordinary first-tier cache.
	s.cl.fallbacks.Add(1)
	s.logf("service: forward to %s failed (%v); solving locally", owner.Addr, err)
	return s.localResolve(me, f, sig, req, done)
}

// forwardStrategy performs one peer_strategy round-trip to the owner and
// validates the payload: the compiled encoding must decode against our
// copy of the model, match its advertised checksum, and answer the
// purpose we asked for. Transport failures and draining answers mark the
// owner down so the ring reassigns its keys immediately.
//
// req is the originating client request: its stamped trace context rides
// the outbound forward, so the owner's spans join the forwarder's trace.
// The fetch is singleflighted (tier2.get), so the forward span and the
// RTT observation belong to the request that started the forward; joiners
// ride along untraced.
func (s *Service) forwardStrategy(owner cluster.Member, me *modelEntry, req *Request, purpose, mode string) (pr *peerResult, retErr error) {
	s.cl.forwards.Add(1)
	timeout := s.cl.opts.ForwardTimeout
	sp := s.obs.tracer().StartSpan(reqCtx(req), "forward")
	sp.SetNote(owner.Addr)
	defer func() {
		if retErr != nil {
			sp.SetErr(retErr.Error())
		}
		sp.End()
	}()
	t0 := time.Now()
	resp, err := s.cl.link(owner.Addr).roundTrip(&Request{
		Op:         "peer_strategy",
		Model:      req.Model,
		ModelHash:  fmt.Sprintf("%016x", me.hash),
		Purpose:    purpose,
		Mode:       mode,
		DeadlineMS: timeout.Milliseconds(),
		TraceID:    req.TraceID,
		SpanID:     req.SpanID,
	}, timeout, s.cl.opts.DialWrap)
	s.obs.forward().Observe(time.Since(t0))
	if err != nil {
		s.cl.forwardFails.Add(1)
		if resp == nil || errors.Is(err, ErrDraining) {
			// The owner is unreachable or going away — not a per-request
			// failure. Reassign its keys now; probes notice the recovery.
			s.cl.opts.Tracker.MarkDown(owner.ID)
		}
		return nil, err
	}
	si := resp.Strategy
	if si == nil {
		s.cl.forwardFails.Add(1)
		return nil, fmt.Errorf("peer %s answered without strategy payload", owner.Addr)
	}
	res := &peerResult{info: &si.Synth}
	if !si.Synth.Winnable {
		return res, nil // a refuted purpose is a valid, cacheable outcome
	}
	cs, err := game.Decode(me.sys, si.Encoded)
	if err != nil {
		s.cl.forwardFails.Add(1)
		return nil, fmt.Errorf("peer %s payload: %v", owner.Addr, err)
	}
	if sum := fmt.Sprintf("%016x", cs.Checksum()); sum != si.Checksum {
		s.cl.forwardFails.Add(1)
		return nil, fmt.Errorf("peer %s checksum mismatch: advertised %s, decoded %s", owner.Addr, si.Checksum, sum)
	}
	if cs.Purpose() != purpose {
		s.cl.forwardFails.Add(1)
		return nil, fmt.Errorf("peer %s answered purpose %q, asked %q", owner.Addr, cs.Purpose(), purpose)
	}
	res.cs = cs
	res.enc = si.Encoded
	return res, nil
}
