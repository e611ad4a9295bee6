package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// config holds one run's settings.
type config struct {
	seed    int64
	seconds float64 // length of the timed phase
	trace   bool
	// quick shrinks the tigad key pool for the smoke test; the ops
	// themselves are unchanged.
	quick bool
	// The workload is set up at least setups times and for at least
	// setupTime, so a set-up of milliseconds is sampled as long as one of
	// a second; setup_s is the median and the last set-up serves the
	// timed phase.
	setups    int
	setupTime time.Duration
}

// workload is one set of inputs the benchmark drives. Every workload is a
// closed loop: each caller issues its next op when the previous round of
// ops, one per caller, has returned.
type workload struct {
	name string
	why  string
	// callers is the number of concurrent closed-loop callers.
	callers int
	// cycle is the number of ops after which a caller's inputs repeat in
	// kind; traced runs trace alternate cycles so traced and untraced ops
	// see the same mix.
	cycle int
	// tail is the percentile reported as op_tail_ms and coldTail the one
	// reported as cold_tail_ms, fixed per workload: a high percentile with
	// at least ten samples beyond it in a default-length run on the
	// reference host.
	tail, coldTail float64
	// start builds the workload's inputs and system, runs its untimed
	// warm-up, and returns the instance the timed phase drives.
	start func(cfg *config) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// op runs one operation and checks its output; seq counts the
	// caller's ops from 0. ot is nil for untraced ops.
	op(caller, seq int, ot *opTrace) opResult
	// layers returns the workload's per-layer metrics after a traced run.
	layers(spans []span, ops []opRecord) map[string]float64
	close()
}

// opResult is what one op reports besides its latency.
type opResult struct {
	// cold marks an op that met a key new to the system under test.
	cold bool
	// class names the tigad request class ("" elsewhere).
	class string
	err   error
	// after, when set, runs once the op's latency is taken (fetching the
	// daemon's spans of a sampled request).
	after func()
}

// opRecord is one timed op.
type opRecord struct {
	ms    float64
	cold  bool
	class string
	// kind groups ops that do the same work: the request class, or the
	// op's position in its cycle.
	kind   string
	traced bool
	failed bool
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a run's result line: the last line of standard output.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (o *outcome) errorRate() float64 { return float64(o.Failed) / float64(max(o.Attempted, 1)) }

// runWorkload sets the workload up as cfg asks, drives the last instance
// for cfg.seconds, and computes the end-to-end metrics (or, in a
// traced run, the per-layer metrics). Op failures are reported to log and
// counted; an error means the workload could not run at all.
func runWorkload(w *workload, cfg *config, log io.Writer) (*outcome, []span, error) {
	var inst instance
	var setups []float64
	for begin := time.Now(); len(setups) < max(cfg.setups, 1) || time.Since(begin) < cfg.setupTime; {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		in, err := w.start(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.close()

	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	rss := startRSS(w.callers == 1)
	recs := make([][]opRecord, w.callers)
	firstErr := make([]error, w.callers)
	// The callers step in rounds: each round every caller issues one op,
	// and the next round starts when all of them have returned. Callers
	// that run free drift in and out of phase with each other, so which of
	// their ops overlap, and how long each takes, depends on scheduling; in
	// rounds it is fixed by the seed.
	begin := make([]chan struct{}, w.callers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := range w.callers {
		begin[c] = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; ; seq++ {
				if _, ok := <-begin[c]; !ok {
					return
				}
				var ot *opTrace
				if tr != nil && (seq/w.cycle)%2 == 0 {
					ot = &opTrace{t: tr, id: tr.newID()}
				}
				rss.beforeOp()
				t0 := time.Now()
				r := inst.op(c, seq, ot)
				t1 := time.Now()
				rss.afterOp()
				name := "op"
				if r.class != "" {
					name += "." + r.class
				}
				ot.finish(name, t0, t1)
				rec := opRecord{ms: ms(t1.Sub(t0)), cold: r.cold, class: r.class, kind: r.class, traced: ot != nil}
				if rec.kind == "" {
					rec.kind = strconv.Itoa(seq % w.cycle)
				}
				if r.err != nil {
					rec.failed = true
					if firstErr[c] == nil {
						firstErr[c] = fmt.Errorf("caller %d op %d: %w", c, seq, r.err)
					}
				}
				recs[c] = append(recs[c], rec)
				if r.after != nil {
					r.after()
				}
				done <- struct{}{}
			}
		}()
	}
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		for _, b := range begin {
			b <- struct{}{}
		}
		for range w.callers {
			<-done
		}
	}
	for _, b := range begin {
		close(b)
	}
	wg.Wait()
	wall := time.Since(start)
	peakRSS := rss.finish()

	var ops []opRecord
	for _, rs := range recs {
		ops = append(ops, rs...)
	}
	for _, err := range firstErr {
		if err != nil {
			fmt.Fprintf(log, "%s: %v\n", w.name, err)
		}
	}
	o := &outcome{Attempted: len(ops), Metrics: map[string]value{}}
	var all, cold []float64
	for _, r := range ops {
		if r.failed {
			o.Failed++
			continue
		}
		all = append(all, r.ms)
		if r.cold {
			cold = append(cold, r.ms)
		}
	}
	o.Correct = o.Failed == 0 && len(ops) > 0

	if !cfg.trace {
		all, cold = sortedCopy(all), sortedCopy(cold)
		vals := map[string]float64{
			"setup_s":      median(setups),
			"ops_per_s":    float64(len(ops)) / wall.Seconds(),
			"op_p50_ms":    percentile(all, 50),
			"op_tail_ms":   percentile(all, w.tail),
			"cold_p50_ms":  percentile(cold, 50),
			"cold_tail_ms": percentile(cold, w.coldTail),
			"peak_rss_mb":  peakRSS,
		}
		for _, m := range endToEnd {
			o.Metrics[m.name] = value{vals[m.name], m.unit}
		}
		return o, nil, nil
	}

	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.name] = 0
	}
	for k, v := range inst.layers(tr.spans, ops) {
		if _, ok := vals[k]; !ok {
			panic("bench: undeclared per-layer metric " + k)
		}
		vals[k] = v
	}
	vals["unattributed_ms"] = unattributedMS(tr.spans)
	vals["trace_overhead_pct"] = traceOverheadPct(ops)
	for _, m := range perLayer {
		o.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	return o, tr.spans, nil
}

// traceOverheadPct compares the mean latency of traced ops with that of
// the untraced ops of the same kind, weighting each kind by its traced
// ops. In a closed loop the ratio of mean latencies is the inverse ratio
// of ops_per_s.
func traceOverheadPct(ops []opRecord) float64 {
	on, off := map[string][]float64{}, map[string][]float64{}
	for _, r := range ops {
		switch {
		case r.failed:
		case r.traced:
			on[r.kind] = append(on[r.kind], r.ms)
		default:
			off[r.kind] = append(off[r.kind], r.ms)
		}
	}
	var sum, n float64
	for k, vs := range on {
		if len(off[k]) == 0 {
			continue
		}
		sum += float64(len(vs)) * (mean(vs)/mean(off[k]) - 1)
		n += float64(len(vs))
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / n
}

// tracedLatencies returns the sorted latencies of the successful traced
// ops of one class.
func tracedLatencies(ops []opRecord, class string) []float64 {
	var vs []float64
	for _, r := range ops {
		if r.traced && !r.failed && r.class == class {
			vs = append(vs, r.ms)
		}
	}
	sort.Float64s(vs)
	return vs
}

// printOutcome writes the human-readable metric lines and then the
// machine-readable result line.
func printOutcome(w io.Writer, name string, o *outcome, line []byte) {
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if v, ok := o.Metrics[m.name]; ok {
			fmt.Fprintf(w, "%s %s %g %s\n", name, m.name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "%s error_rate %g ratio\n", name, o.errorRate())
	fmt.Fprintf(w, "%s\n", line)
}
