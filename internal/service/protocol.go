// Control-API wire types: one JSON object per line in each direction.
//
// A session opens with a server "hello" (or "busy") event, then alternates
// client requests and server "result" responses. A run request with
// iut == "inline" interleaves adapter-protocol frames between the request
// and its result: the daemon drives reset/seed/offer/advance against the
// client's implementation on the same connection (frames are told apart by
// their "type" vs "event" keys), which is what makes a session an online
// test session in the paper's sense — the strategy executes server-side
// against a live remote IUT.
//
// Responses carry no volatile data (no timestamps, no cache provenance)
// and are encoded from fixed struct layouts, so identical requests yield
// byte-identical response lines; campaign reports embed the canonical
// byte-reproducible encoding of internal/campaign, compacted onto the
// line. Cache and session telemetry is observable only through the stats
// endpoint, which is volatile by nature.

package service

import (
	"encoding/json"

	"tigatest/internal/obs"
)

// Request is one control-API call.
type Request struct {
	// Op selects the endpoint: "synthesize", "strategy", "run",
	// "campaign" or "stats" — plus the fleet-internal "peer_ping" (health
	// probe) and "peer_strategy" (a consistent-hash miss forward: the
	// daemon owning the key resolves it locally and ships the compiled
	// wire encoding back; a draining daemon refuses with the typed
	// "draining" error kind so the forwarder falls back to a local solve).
	Op string `json:"op"`
	// Model names a registered model.
	Model string `json:"model,omitempty"`
	// Purpose is the tctl test purpose (synthesize, run).
	Purpose string `json:"purpose,omitempty"`
	// Mode selects the game: "auto" (default: strict first, cooperative
	// fallback — the paper's §3.2 ordering), "strict" or "cooperative".
	Mode string `json:"mode,omitempty"`
	// IUT selects the implementation a run executes against: "local"
	// (default; the daemon interprets the conformant extraction of the
	// model) or "inline" (the client hosts its implementation on this
	// connection via the adapter protocol).
	IUT string `json:"iut,omitempty"`
	// Seed drives per-repeat seed derivation (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Repeats runs the cell this many times (default 1).
	Repeats int `json:"repeats,omitempty"`
	// Coverage/Mutants/Workers parameterize campaign requests like the
	// cmd/campaign flags (coverage loc|edge|all, mutants -1|0|n, cell
	// workers).
	Coverage string `json:"coverage,omitempty"`
	Mutants  int    `json:"mutants,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	// DeadlineMS bounds this request's wall-clock in milliseconds (0 = the
	// server's -request-timeout default, which itself defaults to none).
	// An expired deadline cancels the request's in-flight solve, answers
	// with a typed "deadline" error (Response.ErrorKind) and leaves the
	// session usable; the canceled solve is never cached.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// ModelHash (peer_strategy only) is the forwarder's structural model
	// hash, hex-encoded; the owner refuses a forward whose hash does not
	// match its own registration — two fleets must never cross-pollinate
	// strategies for models that merely share a name.
	ModelHash string `json:"model_hash,omitempty"`
	// TraceID/SpanID propagate request tracing (16 lowercase hex digits
	// each; docs/WIRE.md). On a client request they adopt an existing
	// trace; on a peer_strategy forward they carry the forwarder's root
	// span so both daemons' spans share one trace. Optional: daemons
	// without observability (and older peers) ignore them. On a "trace"
	// request TraceID filters the returned spans instead.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	// Limit bounds the spans a "trace" request returns (0 = server
	// default).
	Limit int `json:"limit,omitempty"`
}

// Response is one control-API reply (or the session greeting).
type Response struct {
	// Event is "hello" (session granted), "busy" (backpressure: the
	// session semaphore is full), "draining" (shutdown in progress) or
	// "result".
	Event string `json:"event"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// ErrorKind types machine-actionable failures: "deadline" (the request
	// deadline expired — retryable), "budget" (solver resource budget
	// exhausted), "panic" (recovered internal panic), "draining" (the
	// daemon is shutting down — peer forwarders treat the owner as down
	// and solve locally). Empty for plain validation errors.
	ErrorKind string `json:"error_kind,omitempty"`

	Synth    *SynthInfo    `json:"synth,omitempty"`
	Run      *RunInfo      `json:"run,omitempty"`
	Strategy *StrategyInfo `json:"strategy,omitempty"`
	// Report is the campaign's canonical byte-reproducible JSON report,
	// compacted onto the response line.
	Report json.RawMessage `json:"report,omitempty"`
	Stats  *Stats          `json:"stats,omitempty"`
	// Peer answers a peer_ping health probe.
	Peer *PeerInfo `json:"peer,omitempty"`
	// Spans answers a trace request: retained finished spans, oldest
	// first (empty when observability is disabled).
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// PeerInfo is the peer_ping payload: the answering daemon's cluster
// identity (empty when it is not clustered — a probe still proves it
// serves requests).
type PeerInfo struct {
	ID string `json:"id,omitempty"`
}

// SynthInfo describes a synthesized (or refuted) strategy.
type SynthInfo struct {
	Model string `json:"model"`
	// ModelHash is the structural content hash the cache keys on.
	ModelHash string `json:"model_hash"`
	// Signature is the extrapolation signature of the purpose (purposes
	// sharing it share one explored zone graph in the solver's batch).
	Signature   string `json:"signature"`
	Purpose     string `json:"purpose"` // canonical formula rendering
	Mode        string `json:"mode"`
	Winnable    bool   `json:"winnable"`
	Cooperative bool   `json:"cooperative"`
	Nodes       int    `json:"nodes"`
	Transitions int    `json:"transitions"`
}

// StrategyInfo ships a compiled strategy: the synthesis outcome plus the
// canonical versioned wire encoding of the compiled decision tables
// (docs/WIRE.md), which clients decode against their own copy of the model
// and consult locally — O(1) lookups with no further daemon round-trips.
// The encoding is deterministic, so identical requests ship identical
// bytes; Checksum is the encoding's trailing FNV-1a self-checksum.
type StrategyInfo struct {
	Synth SynthInfo `json:"synth"`
	// Bytes is len(Encoded) before JSON base64 framing.
	Bytes    int    `json:"bytes"`
	Checksum string `json:"checksum"`
	Encoded  []byte `json:"encoded"`
}

// ReasonCount mirrors campaign.ReasonCount for run tallies.
type ReasonCount struct {
	Reason string `json:"reason"`
	Count  int    `json:"count"`
}

// RunInfo is the outcome of one run request: the synthesized strategy and
// the tally of its repeats.
type RunInfo struct {
	Synth   SynthInfo     `json:"synth"`
	Verdict string        `json:"verdict"`
	Pass    int           `json:"pass"`
	Fail    int           `json:"fail"`
	Incon   int           `json:"incon"`
	Reasons []ReasonCount `json:"reasons"`
}

// CacheStats are the strategy-cache counters. Hits counts every request
// served without starting a solve, Joined the subset that waited on an
// in-flight solve (singleflight), Misses the solves started; for K
// concurrent identical requests Misses grows by 1 and Hits by K-1.
// CompiledHits counts requests served through a compiled strategy (run
// executions and strategy fetches); CompiledBytes the total encoded
// compiled bytes shipped by strategy requests.
type CacheStats struct {
	Entries  int   `json:"entries"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Joined   int64 `json:"joined"`
	Inflight int64 `json:"inflight"`

	CompiledHits  int64 `json:"compiled_hits"`
	CompiledBytes int64 `json:"compiled_bytes"`
}

// SessionStats are the session-layer counters. Timeouts counts requests
// answered with the "deadline" error kind, Cancellations solves aborted
// because every waiter withdrew, PanicsRecovered panics turned into error
// responses (session handlers, solve goroutines and peer fetches combined)
// — a healthy daemon keeps the latter at zero.
type SessionStats struct {
	Active          int64 `json:"active"`
	Peak            int64 `json:"peak"`
	Total           int64 `json:"total"`
	Busy            int64 `json:"busy"` // connections rejected with the busy event
	Requests        int64 `json:"requests"`
	TestRuns        int64 `json:"test_runs"` // individual strategy-vs-IUT executions
	Timeouts        int64 `json:"timeouts"`
	Cancellations   int64 `json:"cancellations"`
	PanicsRecovered int64 `json:"panics_recovered"`
}

// SolverStats aggregate game.Stats over every solve the service ran. The
// SkeletonCore counters track shared-core campaign planning: ghost-overlay
// edge-goal solves that reused (hit) or explored (missed) the model's
// un-instrumented core skeleton. The *Nanos counters accumulate per-phase
// solver wall-clock (game.Stats durations; see that type for the
// attribution rules) — SolveNanos is whole solves, the phase counters the
// attributed subsets.
type SolverStats struct {
	Solves             int64 `json:"solves"`
	SkeletonHits       int64 `json:"skeleton_hits"`
	SkeletonMisses     int64 `json:"skeleton_misses"`
	SkeletonCoreHits   int64 `json:"skeleton_core_hits"`
	SkeletonCoreMisses int64 `json:"skeleton_core_misses"`

	SolveNanos     int64 `json:"solve_nanos"`
	ExploreNanos   int64 `json:"explore_nanos"`
	CondenseNanos  int64 `json:"condense_nanos"`
	PropagateNanos int64 `json:"propagate_nanos"`
	OverlayNanos   int64 `json:"overlay_nanos"`
}

// ClusterStats are the fleet counters of one daemon. PeerHits counts
// requests served with strategy material fetched from the owning peer
// (fresh forwards and second-tier cache hits alike), Forwards the
// peer_strategy round-trips attempted, ForwardFailures the subset that
// failed (owner down, draining, slow, or served a bad payload),
// OwnerLocalFallbacks the requests that degraded to a local solve after a
// failed forward — the graceful-degradation counter: a rising value means
// the fleet is partitioned but still serving. PeerServes counts forwards
// this daemon answered as owner; DrainRejects forwards it refused with
// the typed draining error during shutdown.
type ClusterStats struct {
	Self        string `json:"self"`
	Members     int    `json:"members"`
	Alive       int    `json:"alive"`
	RingVersion uint64 `json:"ring_version"`

	PeerHits            int64 `json:"peer_hits"`
	Forwards            int64 `json:"forwards"`
	ForwardFailures     int64 `json:"forward_failures"`
	OwnerLocalFallbacks int64 `json:"owner_local_fallbacks"`
	PeerServes          int64 `json:"peer_serves"`
	DrainRejects        int64 `json:"drain_rejects"`
}

// ModelInfo describes one registered model.
type ModelInfo struct {
	Name  string   `json:"name"`
	Hash  string   `json:"hash"`
	Procs int      `json:"procs"`
	Plant []string `json:"plant"`
}

// Stats is the stats-endpoint payload. Cluster is present only on
// clustered daemons, so a standalone daemon's stats stay byte-identical
// to the pre-cluster format.
type Stats struct {
	Cache    CacheStats    `json:"cache"`
	Sessions SessionStats  `json:"sessions"`
	Solver   SolverStats   `json:"solver"`
	Cluster  *ClusterStats `json:"cluster,omitempty"`
	Models   []ModelInfo   `json:"models"`
	// Latency are the latency histogram snapshots (absent when
	// observability is disabled). Clients derive percentiles with
	// obs.Snapshot.Quantile; tigaload's soak SLO reads the request
	// histogram here.
	Latency []obs.Snapshot `json:"latency,omitempty"`
}
