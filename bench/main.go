// Command bench is the repository benchmark. It drives the solver, the
// campaign engine and the tigad fleet from outside, through their public
// functions, checks every output, and reports end-to-end metrics or, in a
// traced run, per-layer metrics. BENCHMARK.json at the repository root
// names the metrics and their regression bounds; README.md explains them.
//
// Run it from the repository root; traced runs write their spans to
// bench/out/:
//
//	bash bench/run.sh                                   # every workload, seed 1
//	bash bench/run.sh --workload tigad --seed 3 --seconds 25 --trace 0
//	bash bench/run.sh -trace 1                          # per-layer metrics
//	bash bench/run.sh -sets 5 -out bench/out/base.json  # five alternating sets
//	bash bench/run.sh -compare bench/out/base.json bench/out/head.json
//
// A single-workload run prints "workload metric value unit" lines and, as
// its last line, one JSON object with the keys correct, attempted, failed
// and metrics. It exits non-zero when an output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// defaultSeconds is the timed phase of one run; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 25

// workloads are the benchmark's workloads, in the order a set runs them.
var workloads = []*workload{table1, campaignLEP, campaignSmartlight, tigadWorkload}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", defaultSeconds, "length of each run's timed phase in seconds")
		trace   = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		sets    = fs.Int("sets", 1, "run every workload this many times, alternating their order; set i uses seed+i")
		out     = fs.String("out", "", "write every run's result to this JSON file (the input of -compare)")
		compare = fs.Bool("compare", false, "compare two result files: -compare base.json head.json")
		quick   = fs.Bool("quick", false, "one set-up per run and a small tigad key pool (smoke test)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, setups: 5, setupTime: time.Second}
	if cfg.quick {
		cfg.setups, cfg.setupTime = 1, 0
	}
	if *name == "" {
		return runSets(cfg, *sets, *out, stdout, stderr)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	o, spans, err := runWorkload(w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if cfg.trace {
		if path, err := writeSpans("bench/out", w.name, cfg.seed, spans); err != nil {
			fmt.Fprintf(stderr, "bench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "bench: spans written to %s\n", path)
		}
	}
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	printOutcome(stdout, w.name, o, line)
	if !o.Correct {
		return 1
	}
	return 0
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
