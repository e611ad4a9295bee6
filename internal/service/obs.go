// Observability wiring for the daemon: the tracer and the latency
// histogram set, plus the HTTP metrics handler that renders counters and
// histograms in one exposition document. The whole layer hangs off one
// nullable pointer — Options.DisableObs leaves Service.obs nil, and every
// accessor below is nil-receiver-safe, so the disabled daemon (ablation
// E9, `tigad -obs=false`) pays a nil check per instrumentation site and
// nothing else.

package service

import (
	"io"
	"log/slog"
	"net/http"
	"time"

	"tigatest/internal/obs"
)

// obsState is the per-service observability bundle.
type obsState struct {
	tr *obs.Tracer

	reqH     *obs.Histogram // request dispatch, per control-API request
	solveH   *obs.Histogram // game solves (cache misses that ran)
	consultH *obs.Histogram // strategy resolution per request (cache path)
	sessH    *obs.Histogram // session lifetime
	fwdH     *obs.Histogram // peer_strategy forward round-trip
	cellH    *obs.Histogram // campaign matrix cell execution
	compileH *obs.Histogram // Compile call, once per solved Result (rows build on first use)

	log *slog.Logger
}

// latencyBounds is the standard request-scale bucket layout: 0.5ms to
// ~16s, doubling. Solves, forwards, sessions and cells share it so
// snapshots merge across families and peers.
func latencyBounds() []float64 { return obs.ExpBounds(0.0005, 2, 16) }

// consultBounds starts at 2µs: strategy resolution is usually a cache
// hit, orders of magnitude below request latency.
func consultBounds() []float64 { return obs.ExpBounds(0.000002, 4, 12) }

// newObsState builds the enabled observability layer. logger may be nil
// (tracing still records to the ring; nothing is emitted per span).
func newObsState(logger *slog.Logger, traceSeed uint64, ringCap int) *obsState {
	return &obsState{
		tr:       obs.NewTracer(traceSeed, ringCap, logger),
		reqH:     obs.NewHistogram("tigad_request_duration_seconds", "Control-API request latency.", latencyBounds()),
		solveH:   obs.NewHistogram("tigad_solve_duration_seconds", "Game solve wall-clock (cache misses).", latencyBounds()),
		consultH: obs.NewHistogram("tigad_consult_duration_seconds", "Strategy resolution latency per request (cache lookups, joins and solves).", consultBounds()),
		sessH:    obs.NewHistogram("tigad_session_duration_seconds", "Session lifetime.", latencyBounds()),
		fwdH:     obs.NewHistogram("tigad_peer_forward_duration_seconds", "peer_strategy forward round-trip latency.", latencyBounds()),
		cellH:    obs.NewHistogram("tigad_campaign_cell_duration_seconds", "Campaign matrix cell execution.", latencyBounds()),
		compileH: obs.NewHistogram("tigad_compile_duration_seconds", "Strategy compilation to decision tables.", latencyBounds()),
		log:      logger,
	}
}

// tracer returns the tracer (nil when observability is disabled — every
// obs.Tracer method is itself nil-safe).
func (o *obsState) tracer() *obs.Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

func (o *obsState) request() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.reqH
}

func (o *obsState) solve() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.solveH
}

func (o *obsState) consult() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.consultH
}

func (o *obsState) sessions() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.sessH
}

func (o *obsState) forward() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.fwdH
}

func (o *obsState) cell() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.cellH
}

func (o *obsState) compile() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.compileH
}

// cellObserver adapts the campaign-cell histogram to
// campaign.Options.ObserveCell. Nil when observability is disabled, so
// the campaign executor takes its zero-cost path.
func (o *obsState) cellObserver() func(time.Duration) {
	if o == nil {
		return nil
	}
	return o.cellH.Observe
}

// logger returns the structured logger (nil when unset or disabled).
func (o *obsState) logger() *slog.Logger {
	if o == nil {
		return nil
	}
	return o.log
}

// histograms lists every histogram family in stable exposition order.
func (o *obsState) histograms() []*obs.Histogram {
	if o == nil {
		return nil
	}
	return []*obs.Histogram{o.reqH, o.solveH, o.consultH, o.sessH, o.fwdH, o.cellH, o.compileH}
}

// HistogramSnapshots captures every latency histogram (nil when
// observability is disabled). The load generator and the soak job read
// percentiles from these via the stats op's JSON rendering.
func (s *Service) HistogramSnapshots() []obs.Snapshot {
	hs := s.obs.histograms()
	if hs == nil {
		return nil
	}
	out := make([]obs.Snapshot, len(hs))
	for i, h := range hs {
		out[i] = h.Snapshot()
	}
	return out
}

// TraceRecent returns the retained finished spans, optionally filtered to
// one trace id (wire form). Nil when observability is disabled.
func (s *Service) TraceRecent(traceID string, max int) []obs.SpanRecord {
	return s.obs.tracer().Recent(traceID, max)
}

// WriteMetricsTo renders the full exposition document: every counter of
// the stats snapshot (WriteMetrics) followed by the latency histogram
// families when observability is enabled.
func (s *Service) WriteMetricsTo(w io.Writer) error {
	if err := WriteMetrics(w, s.StatsSnapshot()); err != nil {
		return err
	}
	for _, h := range s.obs.histograms() {
		if err := h.Snapshot().WriteProm(w); err != nil {
			return err
		}
	}
	return nil
}

// MetricsContentType is the Prometheus text exposition content type the
// metrics handler serves.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler serves the exposition document with the correct
// Content-Type; cmd/tigad mounts it on the -metrics-addr mux.
func (s *Service) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", MetricsContentType)
		if err := s.WriteMetricsTo(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// accessLog emits one structured access-log line per request at Info.
func (o *obsState) accessLog(req *Request, resp *Response, traceID string, d time.Duration) {
	if o == nil || o.log == nil || resp == nil {
		return
	}
	attrs := []any{
		"op", req.Op,
		"model", req.Model,
		"trace_id", traceID,
		"duration", d,
		"ok", resp.OK,
	}
	if resp.ErrorKind != "" {
		attrs = append(attrs, "error_kind", resp.ErrorKind)
	}
	o.log.Info("request", attrs...)
}
