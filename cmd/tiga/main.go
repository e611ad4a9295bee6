// Command tiga synthesizes winning strategies for TIOGA models and test
// purposes, the strategy-generation box of the paper's Fig. 4 (a
// UPPAAL-TIGA work-alike).
//
// Usage:
//
//	tiga -model smartlight -formula "control: A<> IUT.Bright"
//	tiga -model lep -n 4 -formula TP2
//	tiga -file mymodel.tga -formula "control: A<> P.Goal" -json out.json
//	tiga -model smartlight -dump            # print the model in DSL form
//
// Built-in models: smartlight (the paper's running example, Fig. 2+3) and
// lep (the Leader Election Protocol of §4, parameterized by -n). For lep,
// -formula also accepts the shorthands TP1, TP2 and TP3.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"tigatest/internal/dsl"
	"tigatest/internal/game"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

func main() {
	var (
		modelName   = flag.String("model", "", "built-in model: smartlight | lep")
		file        = flag.String("file", "", "model file in the tigatest DSL")
		n           = flag.Int("n", 3, "number of nodes for the lep model")
		formula     = flag.String("formula", "", "test purpose (control: A<> ... / control: A[] ...)")
		dump        = flag.Bool("dump", false, "print the model in DSL form and exit")
		backward    = flag.Bool("backward", false, "use the backward fixpoint solver instead of on-the-fly")
		early       = flag.Bool("early", false, "stop as soon as the initial state is decided")
		jsonOut     = flag.String("json", "", "write the strategy as JSON to this file")
		budget      = flag.Duration("budget", 0, "time budget (0 = none)")
		memMB       = flag.Uint64("mem", 0, "memory budget in MiB (0 = none)")
		workers     = flag.Int("workers", 0, "exploration workers (0 = all cores)")
		propWorkers = flag.Int("prop-workers", 0, "propagation workers (0 = same as -workers)")
		quiet       = flag.Bool("quiet", false, "suppress the strategy printout")
	)
	flag.Parse()

	f, err := loadModel(*modelName, *file, *n)
	if err != nil {
		fatal(err)
	}
	if *dump {
		fmt.Print(dsl.Print(f.Sys, f.Ranges))
		return
	}
	src := resolveFormula(*modelName, *formula)
	if src == "" {
		fatal(fmt.Errorf("missing -formula"))
	}
	purpose, err := tctl.Parse(f.ParseEnv(), src)
	if err != nil {
		fatal(err)
	}

	opts := game.Options{
		EarlyTermination:   *early,
		TimeBudget:         *budget,
		MemBudget:          *memMB << 20,
		Workers:            *workers,
		PropagationWorkers: *propWorkers,
	}
	if *backward {
		opts.Algorithm = game.Backward
	}
	t0 := time.Now()
	res, err := game.Solve(f.Sys, purpose, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("formula:  %s\n", purpose)
	fmt.Printf("model:    %s (%d processes, %d clocks, %d edges)\n",
		f.Sys.Name, len(f.Sys.Procs), f.Sys.NumClocks()-1, f.Sys.NumEdges())
	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("solver:   %s (workers=%d)\n", opts.Algorithm, effWorkers)
	fmt.Printf("result:   winnable=%v\n", res.Winnable)
	fmt.Printf("effort:   %d symbolic states, %d transitions, %d re-evaluations, %v, peak heap %d MiB\n",
		res.Stats.Nodes, res.Stats.Transitions, res.Stats.Reevals, time.Since(t0).Round(time.Millisecond), res.Stats.PeakHeapBytes>>20)
	if res.Stats.PropagationRounds > 0 {
		fmt.Printf("backward: %d SCCs, %d propagation passes, %d cross-SCC messages\n",
			res.Stats.SCCs, res.Stats.PropagationRounds, res.Stats.CrossSCCMessages)
	}

	if res.Strategy != nil && !*quiet {
		fmt.Println()
		res.Strategy.Print(os.Stdout)
	}
	if res.Strategy != nil && *jsonOut != "" {
		data, err := json.MarshalIndent(res.Strategy, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("strategy written to %s\n", *jsonOut)
	}
	if !res.Winnable {
		os.Exit(2)
	}
}

func loadModel(name, file string, n int) (*dsl.File, error) {
	switch {
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return dsl.Parse(string(data))
	case name == "smartlight":
		sys := models.SmartLight()
		return &dsl.File{Sys: sys, Ranges: nil}, nil
	case name == "lep":
		sys := models.LEP(models.LEPOptions{Nodes: n})
		return &dsl.File{Sys: sys, Ranges: models.LEPEnv(sys, n).Ranges}, nil
	default:
		return nil, fmt.Errorf("specify -model smartlight|lep or -file <path>")
	}
}

func resolveFormula(modelName, f string) string {
	if modelName == "lep" {
		switch f {
		case "TP1":
			return models.LEPTP1
		case "TP2":
			return models.LEPTP2
		case "TP3":
			return models.LEPTP3
		}
	}
	if modelName == "smartlight" && f == "" {
		return models.SmartLightGoal
	}
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tiga:", err)
	os.Exit(1)
}
