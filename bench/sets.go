package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// resultFile is what -out writes and -compare reads: every run of a
// multi-set invocation, stamped with the host class it ran on.
type resultFile struct {
	Host    hostClass   `json:"host"`
	Seconds float64     `json:"seconds"`
	Trace   bool        `json:"trace"`
	Runs    []runResult `json:"runs"`
}

type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	outcome
}

type hostClass struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func currentHost() hostClass {
	h := hostClass{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runSets runs every workload sets times, each run in a child process of
// its own (so peak_rss_mb is per workload), alternating the workload order
// between sets. Set i uses seed+i. It prints each run's metric lines, a
// per-metric summary when there is more than one set, and writes the
// result file when out is set.
func runSets(cfg *config, sets int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rf := &resultFile{Host: currentHost(), Seconds: cfg.seconds, Trace: cfg.trace}
	ok := true
	for s := range max(sets, 1) {
		order := slices.Clone(workloads)
		if s%2 == 1 {
			slices.Reverse(order)
		}
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		for _, w := range order {
			seed := cfg.seed + int64(s)
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace}
			if cfg.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = stderr
			outBytes, err := cmd.Output()
			lines := strings.Split(strings.TrimRight(string(outBytes), "\n"), "\n")
			for _, l := range lines[:len(lines)-1] {
				fmt.Fprintln(stdout, l)
			}
			var o outcome
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &o); jerr != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: no result line (exit: %v)\n", w.name, seed, err)
				ok = false
				continue
			}
			if err != nil || !o.Correct {
				fmt.Fprintf(stderr, "bench: %s seed %d failed its checks\n", w.name, seed)
				ok = false
			}
			rf.Runs = append(rf.Runs, runResult{Workload: w.name, Seed: seed, outcome: o})
		}
	}
	if sets > 1 {
		printSummary(stdout, rf)
	}
	if out != "" {
		if err := writeResultFile(out, rf); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// values collects one (workload, metric) pair across a file's runs.
func (rf *resultFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range rf.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// printSummary prints each (workload, metric) pair's median, quartiles and
// spread, and for every end-to-end metric the smallest bound the observed
// spread supports: three times the widest spread over the workloads, at
// least 0.05 and at most 0.25.
func printSummary(w io.Writer, rf *resultFile) {
	ms := endToEnd
	if rf.Trace {
		ms = perLayer
	}
	fmt.Fprintf(w, "\n%-20s %-32s %12s %12s %12s %8s\n", "workload", "metric", "median", "q1", "q3", "spread")
	widest := map[string]float64{}
	for _, wl := range workloads {
		for _, m := range ms {
			vs := rf.values(wl.name, m.name)
			if len(vs) == 0 {
				continue
			}
			q1, q3 := quartiles(vs)
			sp := spread(vs)
			widest[m.name] = math.Max(widest[m.name], sp)
			fmt.Fprintf(w, "%-20s %-32s %12.4g %12.4g %12.4g %8.4f\n", wl.name, m.name, median(vs), q1, q3, sp)
		}
	}
	if rf.Trace {
		return
	}
	fmt.Fprintln(w)
	for _, m := range endToEnd {
		b := math.Min(math.Max(math.Ceil(300*widest[m.name])/100, 0.05), 0.25)
		fmt.Fprintf(w, "bound %-14s >= %.2f (widest spread %.4f)\n", m.name, b, widest[m.name])
	}
}

func writeResultFile(path string, rf *resultFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
