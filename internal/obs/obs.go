// Package obs is the zero-dependency observability substrate of the
// daemon: lock-light latency histograms rendered in the Prometheus text
// exposition format, trace/span contexts that follow one control-API
// request across a fleet, and an exposition-format lint that keeps the
// /metrics output well-formed.
//
// Key types: Histogram is a fixed-bucket, atomic latency histogram
// (exponential bounds via ExpBounds); Snapshot is its immutable capture,
// mergeable across peers and queryable for quantiles; Tracer mints
// splitmix64-seeded trace/span identifiers and keeps a bounded ring of
// finished SpanRecords; Span times one operation and links to its parent.
//
// Concurrency contract: every Histogram method is safe for concurrent
// callers (buckets are atomic counters; Observe takes no lock). A Tracer
// is safe for concurrent use; its ring is guarded by one short mutex
// taken only at span end. All methods are nil-receiver-safe no-ops, so a
// disabled observability layer (tigad -obs=false) costs a nil check and
// nothing else.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram. Bounds are upper bucket
// edges in seconds, ascending; one implicit +Inf bucket catches the
// overflow. Observations and snapshots are lock-free.
type Histogram struct {
	name   string
	help   string
	bounds []float64
	// buckets[i] counts observations <= bounds[i]; the last entry is the
	// +Inf bucket. Buckets are NOT cumulative in memory — Snapshot and
	// WriteProm accumulate for the exposition format's `le` convention.
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds, so the hot path never touches floats
}

// NewHistogram builds a histogram with the given upper bucket bounds
// (seconds, must be ascending and positive). The +Inf bucket is implicit.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	return &Histogram{
		name:    name,
		help:    help,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExpBounds returns n exponentially spaced upper bounds starting at lo
// seconds and multiplying by factor: the standard latency bucket layout.
func ExpBounds(lo, factor float64, n int) []float64 {
	if lo <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBounds needs lo > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	b := lo
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// Name returns the metric family name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Observe records one duration. Nil-safe: a nil histogram (observability
// disabled) is a no-op.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	sec := d.Seconds()
	// Binary search for the first bound >= sec; linear would be fine for
	// ~16 buckets but sort.SearchFloat64s is branch-predictable and short.
	i := sort.SearchFloat64s(h.bounds, sec)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Snapshot is an immutable capture of a histogram, mergeable with
// snapshots of histograms sharing the same bounds (fleet aggregation).
type Snapshot struct {
	Name   string    `json:"name"`
	Help   string    `json:"-"`
	Bounds []float64 `json:"bounds"`
	// Counts are per-bucket (not cumulative); len(Counts) == len(Bounds)+1
	// with the final entry the +Inf bucket.
	Counts   []int64 `json:"counts"`
	Count    int64   `json:"count"`
	SumNanos int64   `json:"sum_nanos"`
}

// Snapshot captures the current contents. The capture is not atomic
// across buckets (observations racing the snapshot may be split), but
// each bucket is internally consistent and count >= sum of a concurrent
// reader's buckets never misleads quantile estimation materially.
func (h *Histogram) Snapshot() Snapshot {
	if h == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Name:   h.name,
		Help:   h.help,
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumNanos = h.sum.Load()
	return s
}

// Merge folds o into s. The bounds must match (same layout on every
// peer); merging a zero-value snapshot is a no-op.
func (s *Snapshot) Merge(o Snapshot) error {
	if o.Count == 0 && len(o.Counts) == 0 {
		return nil
	}
	if len(s.Counts) == 0 {
		*s = o
		return nil
	}
	if len(o.Counts) != len(s.Counts) {
		return fmt.Errorf("obs: merge %s: bucket layout mismatch (%d vs %d)", s.Name, len(s.Counts), len(o.Counts))
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.SumNanos += o.SumNanos
	return nil
}

// Quantile estimates the q-quantile (0 < q <= 1) in seconds by linear
// interpolation within the bucket holding the target rank. Returns 0 for
// an empty snapshot; observations in the +Inf bucket report the last
// finite bound (the histogram cannot see beyond it).
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	var cum int64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: the best point estimate is the largest bound.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := float64(rank-prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// WriteProm renders the snapshot as one Prometheus histogram family:
// HELP/TYPE header, cumulative `_bucket{le="..."}` series ending in
// le="+Inf", then `_sum` (seconds) and `_count`.
func (s Snapshot) WriteProm(w io.Writer) error {
	if s.Name == "" {
		return fmt.Errorf("obs: cannot render unnamed snapshot")
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", s.Name, s.Help, s.Name); err != nil {
		return err
	}
	var cum int64
	for i, b := range s.Bounds {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", s.Name, formatBound(b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", s.Name, s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n",
		s.Name, float64(s.SumNanos)/1e9, s.Name, s.Count); err != nil {
		return err
	}
	return nil
}

// formatBound renders a bucket edge the way Prometheus clients expect
// (shortest decimal that round-trips, e.g. 0.001, 0.25, 4).
func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}
