package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported quantity. These two lists are the ones
// BENCHMARK.json names (bench_test.go keeps them in step); the regression
// bounds live only in BENCHMARK.json.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"cold_p50_ms", "ms", "lower"},
	{"cold_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported by every traced run
// of every workload (0 where a workload does not reach the layer). game.*
// values are means per solve, campaign.* and texec.* counts and times are
// per op, service.* and cluster.* counters cover the timed phase.
var perLayer = []metric{
	{"game.solves", "count", "lower"},
	{"game.solve_ms", "ms", "lower"},
	{"game.explore_ms", "ms", "lower"},
	{"game.condense_ms", "ms", "lower"},
	{"game.propagate_ms", "ms", "lower"},
	{"game.overlay_ms", "ms", "lower"},
	{"game.unattributed_ms", "ms", "lower"},
	{"game.nodes", "count", "lower"},
	{"game.transitions", "count", "lower"},
	{"game.reevals", "count", "lower"},
	{"game.updates", "count", "lower"},
	{"game.update_yield", "ratio", "higher"},
	{"game.sccs", "count", "lower"},
	{"game.cross_scc_messages", "count", "lower"},
	{"game.propagation_rounds", "count", "lower"},
	{"game.condensation_incrementals", "count", "higher"},
	{"game.skeleton_hits", "count", "higher"},
	{"game.skeleton_misses", "count", "lower"},
	{"game.core_hits", "count", "higher"},
	{"game.transitions_per_explore_ms", "1/ms", "higher"},

	{"campaign.plan_ms", "ms", "lower"},
	{"campaign.exec_ms", "ms", "lower"},
	{"campaign.analyze_ms", "ms", "lower"},
	{"campaign.plan_solves", "count", "lower"},
	{"campaign.delta_solves", "count", "lower"},
	{"campaign.delta_solve_ms", "ms", "lower"},
	{"campaign.self_ms", "ms", "lower"},

	{"texec.cell_p50_ms", "ms", "lower"},
	{"texec.cell_p99_ms", "ms", "lower"},
	{"texec.cells", "count", "lower"},
	{"texec.runs", "count", "lower"},
	{"texec.incon_share", "ratio", "lower"},

	{"service.hit_p50_ms", "ms", "lower"},
	{"service.hit_p99_ms", "ms", "lower"},
	{"service.run_local_p50_ms", "ms", "lower"},
	{"service.run_local_p99_ms", "ms", "lower"},
	{"service.run_inline_p50_ms", "ms", "lower"},
	{"service.run_inline_p99_ms", "ms", "lower"},
	{"service.miss_p50_ms", "ms", "lower"},
	{"service.miss_p99_ms", "ms", "lower"},
	{"service.server_p50_ms", "ms", "lower"},
	{"service.protocol_ms", "ms", "lower"},
	{"service.cache_hits", "count", "higher"},
	{"service.cache_misses", "count", "lower"},
	{"service.cache_joined", "count", "higher"},
	{"service.cache_entries", "count", "lower"},
	{"service.hit_ratio", "ratio", "higher"},
	{"service.solve_ms", "ms", "lower"},
	{"service.compile_ms", "ms", "lower"},
	{"service.bytes_per_req", "B", "lower"},

	{"cluster.forward_ms", "ms", "lower"},
	{"cluster.forwards", "count", "lower"},
	{"cluster.peer_hits", "count", "higher"},
	{"cluster.forward_failures", "count", "lower"},
	{"cluster.fallbacks", "count", "lower"},

	{"unattributed_ms", "ms", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

// percentile returns the p-th percentile (0..100) of sorted values,
// interpolating linearly between order statistics; 0 for no values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	h := float64(len(sorted)-1) * p / 100
	lo := int(math.Floor(h))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns the values in ascending order without touching vs.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

func median(vs []float64) float64 { return percentile(sortedCopy(vs), 50) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), which is how run-to-run spread is judged.
func quartiles(vs []float64) (q1, q3 float64) {
	d := sortedCopy(vs)
	switch len(d) {
	case 0:
		return 0, 0
	case 1:
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// rssSampler measures peak_rss_mb as the median of interval peaks: the
// resident-set high-water mark is reset at the start of each op of a
// single caller, or of each second of a multi-caller workload. One late
// garbage collection moves the process-wide peak of a small heap by a
// quarter; it cannot move this median. Where the mark cannot be reset, the
// process-wide peak is reported.
type rssSampler struct {
	perOp      bool
	peaks      []float64
	stop, done chan struct{}
}

func startRSS(perOp bool) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	resettable := resetPeakRSS()
	if !resettable || perOp {
		s.perOp = resettable && perOp
		close(s.done)
		return s
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.peaks = append(s.peaks, peakRSSMB())
				resetPeakRSS()
			}
		}
	}()
	return s
}

// beforeOp and afterOp bracket one op of a single caller.
func (s *rssSampler) beforeOp() {
	if s.perOp {
		resetPeakRSS()
	}
}

func (s *rssSampler) afterOp() {
	if s.perOp {
		s.peaks = append(s.peaks, peakRSSMB())
	}
}

// finish stops sampling and returns the median interval peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	if len(s.peaks) == 0 {
		return peakRSSMB()
	}
	return median(s.peaks)
}

// resetPeakRSS resets the process's resident-set high-water mark to its
// current resident set (Linux 4.0 and later); false where unsupported.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM) in
// MiB, falling back to the Go runtime's total reservation where /proc is
// unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
