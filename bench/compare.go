package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one (metric, workload) pair.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// setupFloor is the set-up time change -compare always calls unchanged: a
// set-up of milliseconds (tigad) moves by more than its bound in relative
// terms from scheduling alone.
const setupFloor = 0.05

// classify judges head against base for one pair. A pair whose run-to-run
// spread exceeds the bound on either side is unresolved, unless every head
// run reads better than every base run; a change within floor (in the
// metric's unit) is unchanged.
func classify(base, head []float64, bound, floor float64, higherBetter bool) (verdict string, change float64) {
	mb, mh := median(base), median(head)
	change = (mh - mb) / math.Abs(mb)
	if math.Abs(mh-mb) <= floor {
		return unchanged, change
	}
	worse := change
	if higherBetter {
		worse = -change
	}
	if spread(base) > bound || spread(head) > bound {
		better := func(h, b float64) bool { return (h > b) == higherBetter && h != b }
		for _, h := range head {
			for _, b := range base {
				if !better(h, b) {
					return unresolved, change
				}
			}
		}
		return improved, change
	}
	switch {
	case worse > bound:
		return regressed, change
	case -worse > bound:
		return improved, change
	}
	return unchanged, change
}

// compareFiles compares two result files pair by pair under the bounds of
// BENCHMARK.json. It fails on a regression, on a missing pair, and on a
// higher error rate in head.
func compareFiles(benchPath, basePath, headPath string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", benchPath, err)
		return 2
	}
	base, err := readResultFile(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	head, err := readResultFile(headPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if base.Trace || head.Trace {
		fmt.Fprintln(stderr, "bench: -compare takes untraced runs")
		return 2
	}
	if base.Host != head.Host {
		fmt.Fprintf(stderr, "bench: warning: host classes differ: %+v vs %+v\n", base.Host, head.Host)
	}

	failed := false
	fmt.Fprintf(stdout, "%-20s %-14s %12s %23s %12s %23s %8s  %s\n",
		"workload", "metric", "base", "[q1 q3]", "head", "[q1 q3]", "change", "verdict")
	for _, wl := range workloads {
		for _, m := range bf.EndToEnd {
			b, h := base.values(wl.name, m.Name), head.values(wl.name, m.Name)
			if len(b) == 0 || len(h) == 0 {
				fmt.Fprintf(stdout, "%-20s %-14s missing from a result file\n", wl.name, m.Name)
				failed = true
				continue
			}
			floor := 0.0
			if m.Name == "setup_s" {
				floor = setupFloor
			}
			verdict, change := classify(b, h, m.Bound, floor, m.Better == "higher")
			bq1, bq3 := quartiles(b)
			hq1, hq3 := quartiles(h)
			fmt.Fprintf(stdout, "%-20s %-14s %12.4g [%10.4g %10.4g] %12.4g [%10.4g %10.4g] %+7.1f%%  %s (bound %.2f)\n",
				wl.name, m.Name, median(b), bq1, bq3, median(h), hq1, hq3, 100*change, verdict, m.Bound)
			if verdict == regressed {
				failed = true
			}
		}
		be, he := base.errorRate(wl.name), head.errorRate(wl.name)
		fmt.Fprintf(stdout, "%-20s %-14s %12.4g %23s %12.4g\n", wl.name, "error_rate", be, "", he)
		if he > be {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// errorRate is failed over attempted ops of a workload across a file's runs.
func (rf *resultFile) errorRate(workload string) float64 {
	var attempted, failed int
	for _, r := range rf.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}
