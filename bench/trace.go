package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Every op has a root span
// (Parent 0, ID == Op); the benchmark records child spans around the calls
// it makes into a layer's public functions, and the tigad workload adds
// the daemon's own spans for sampled requests.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_nano"`
	End    int64  `json:"end_unix_nano"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced run's spans in memory until the run ends. Safe for
// concurrent use: campaign cells report from the executor's goroutines.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// opTrace is the handle a workload gets for one traced op. A nil *opTrace
// is an untraced op: every method is then a no-op.
type opTrace struct {
	t  *tracer
	id int64
}

// child records a span under the op's root span.
func (o *opTrace) child(name string, start, end time.Time) {
	if o == nil {
		return
	}
	o.t.add(span{ID: o.t.newID(), Parent: o.id, Op: o.id, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
}

// finish records the op's root span.
func (o *opTrace) finish(name string, start, end time.Time) {
	if o == nil {
		return
	}
	o.t.add(span{ID: o.id, Op: o.id, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
}

// covered returns how much of [lo, hi) the spans cover, counting
// overlapping spans (concurrent campaign cells) once.
func covered(spans []span, lo, hi int64) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// opGroup is one traced op: its root span and the spans under it.
type opGroup struct {
	root     span
	children []span
}

// opSpans groups a run's spans by op.
func opSpans(spans []span) map[int64]*opGroup {
	ops := map[int64]*opGroup{}
	for _, s := range spans {
		o := ops[s.Op]
		if o == nil {
			o = &opGroup{}
			ops[s.Op] = o
		}
		if s.Parent == 0 {
			o.root = s
		} else {
			o.children = append(o.children, s)
		}
	}
	return ops
}

// unattributedMS is the mean, over traced ops that recorded any child
// span, of the op time no child span covers: the work the benchmark could
// not attribute to a layer from outside.
func unattributedMS(spans []span) float64 {
	var vals []float64
	for _, o := range opSpans(spans) {
		if len(o.children) == 0 || o.root.ID == 0 {
			continue
		}
		self := o.root.dur() - covered(o.children, o.root.Start, o.root.End)
		vals = append(vals, ms(self))
	}
	return mean(vals)
}

// writeSpans dumps a traced run's spans as JSON into dir.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
