// Prometheus text exposition of the stats snapshot. The daemon's counters
// already exist for the stats endpoint; this file only renders them in
// the text format (version 0.0.4) scrapers expect, so a fleet can be
// monitored without any client-side JSON plumbing. Cluster metrics appear
// only on clustered daemons, mirroring the stats payload.

package service

import (
	"fmt"
	"io"
)

// metricDef is one exposition entry: name, HELP line, TYPE and value.
type metricDef struct {
	name string
	help string
	typ  string // "counter" or "gauge"
	val  int64
}

// WriteMetrics renders st in the Prometheus text exposition format.
func WriteMetrics(w io.Writer, st *Stats) error {
	defs := []metricDef{
		{"tigad_cache_entries", "Strategy-cache entries resident.", "gauge", int64(st.Cache.Entries)},
		{"tigad_cache_hits_total", "Requests served without starting a solve.", "counter", st.Cache.Hits},
		{"tigad_cache_misses_total", "Solves started.", "counter", st.Cache.Misses},
		{"tigad_cache_joined_total", "Requests that waited on an in-flight solve.", "counter", st.Cache.Joined},
		{"tigad_cache_inflight", "Solves in flight.", "gauge", st.Cache.Inflight},
		{"tigad_cache_compiled_hits_total", "Requests served through a compiled strategy.", "counter", st.Cache.CompiledHits},
		{"tigad_cache_compiled_bytes_total", "Encoded compiled bytes shipped by strategy requests.", "counter", st.Cache.CompiledBytes},

		{"tigad_sessions_active", "Sessions open right now.", "gauge", st.Sessions.Active},
		{"tigad_sessions_peak", "High-water mark of concurrent sessions.", "gauge", st.Sessions.Peak},
		{"tigad_sessions_total", "Sessions admitted since start.", "counter", st.Sessions.Total},
		{"tigad_sessions_busy_total", "Connections rejected with the busy event.", "counter", st.Sessions.Busy},
		{"tigad_requests_total", "Control-API requests handled.", "counter", st.Sessions.Requests},
		{"tigad_test_runs_total", "Individual strategy-vs-IUT executions.", "counter", st.Sessions.TestRuns},
		{"tigad_request_timeouts_total", "Requests answered with the deadline error kind.", "counter", st.Sessions.Timeouts},
		{"tigad_solve_cancellations_total", "Solves aborted because every waiter withdrew.", "counter", st.Sessions.Cancellations},
		{"tigad_panics_recovered_total", "Panics recovered into error responses.", "counter", st.Sessions.PanicsRecovered},

		{"tigad_solves_total", "Game solves completed.", "counter", st.Solver.Solves},
		{"tigad_skeleton_hits_total", "Solves that reused an explored skeleton.", "counter", st.Solver.SkeletonHits},
		{"tigad_skeleton_misses_total", "Solves that explored a fresh skeleton.", "counter", st.Solver.SkeletonMisses},
		{"tigad_skeleton_core_hits_total", "Ghost-overlay solves that reused the core skeleton.", "counter", st.Solver.SkeletonCoreHits},
		{"tigad_skeleton_core_misses_total", "Ghost-overlay solves that explored the core skeleton.", "counter", st.Solver.SkeletonCoreMisses},
		{"tigad_solve_nanos_total", "Total solve wall-clock in nanoseconds.", "counter", st.Solver.SolveNanos},
		{"tigad_solve_explore_nanos_total", "Solve wall-clock attributed to zone-graph exploration, in nanoseconds.", "counter", st.Solver.ExploreNanos},
		{"tigad_solve_condense_nanos_total", "Solve wall-clock attributed to SCC condensation, in nanoseconds.", "counter", st.Solver.CondenseNanos},
		{"tigad_solve_propagate_nanos_total", "Solve wall-clock attributed to winning-set propagation, in nanoseconds.", "counter", st.Solver.PropagateNanos},
		{"tigad_solve_overlay_nanos_total", "Solve wall-clock attributed to ghost-overlay replay, in nanoseconds.", "counter", st.Solver.OverlayNanos},

		{"tigad_models", "Models registered.", "gauge", int64(len(st.Models))},
	}
	if c := st.Cluster; c != nil {
		defs = append(defs,
			metricDef{"cluster_members", "Fleet members configured.", "gauge", int64(c.Members)},
			metricDef{"cluster_alive", "Fleet members currently alive.", "gauge", int64(c.Alive)},
			metricDef{"cluster_ring_version", "Membership view version (bumps on every transition).", "gauge", int64(c.RingVersion)},
			metricDef{"cluster_peer_hits", "Requests served with strategy material fetched from the owning peer.", "counter", c.PeerHits},
			metricDef{"cluster_forwards", "peer_strategy round-trips attempted.", "counter", c.Forwards},
			metricDef{"cluster_forward_failures", "Peer forwards that failed.", "counter", c.ForwardFailures},
			metricDef{"cluster_owner_local_fallbacks", "Requests degraded to a local solve after a failed forward.", "counter", c.OwnerLocalFallbacks},
			metricDef{"cluster_peer_serves", "Forwards answered as owner.", "counter", c.PeerServes},
			metricDef{"cluster_drain_rejects", "Forwards refused with the draining kind during shutdown.", "counter", c.DrainRejects},
		)
	}
	for _, d := range defs {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", d.name, d.help, d.name, d.typ, d.name, d.val); err != nil {
			return err
		}
	}
	return nil
}
