// Command campaign runs a coverage-guided test campaign: it derives a
// test suite from coverage goals of the specification (one synthesized
// strategy per uncovered goal, strict game first with cooperative
// fallback), executes every (strategy × implementation) cell in parallel
// against the conformant implementation and seeded mutants, and reports
// per-goal coverage, the verdict matrix and per-operator mutation scores.
//
// Usage:
//
//	campaign -model smartlight                      # edge coverage, all mutants
//	campaign -model traingate -coverage all -json report.json
//	campaign -model lep -n 3 -mutants 10 -seed 7 -workers 8
//	campaign -file m.tga -plant P -coverage loc
//	campaign -model smartlight -connect host:9000   # add a remote IUT row
//
// The canonical JSON report (-json) excludes wall-clock measurements, so
// two runs with the same flags and -seed produce byte-identical files;
// -timing adds the volatile timing section (wall-clock plus the planner's
// shared-core skeleton counters). Edge goals are planned as ghost
// overlays on one shared explored core (-shared-core, on by default);
// -shared-core=false re-explores a clone per edge, producing the identical
// report more slowly. Execution consults compiled strategy decision tables
// (-compile, on by default); -compile=false falls back to interpreted
// consultation, again with a byte-identical report (the E8 ablation).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"tigatest/internal/campaign"
	"tigatest/internal/dsl"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

func main() {
	var (
		modelName   = flag.String("model", "", "built-in model: smartlight, traingate or lep (default smartlight when -file is absent)")
		nodes       = flag.Int("n", 2, "LEP instance size (with -model lep)")
		file        = flag.String("file", "", "model file in the tigatest DSL")
		plantList   = flag.String("plant", "", "comma-separated plant process names (default: model convention / output emitters)")
		coverage    = flag.String("coverage", "edge", "coverage goals: loc, edge or all")
		mutants     = flag.Int("mutants", 0, "mutants: 0 = one per (operator, site), n > 0 = n seeded random, -1 = none")
		workers     = flag.Int("workers", 0, "concurrent campaign cells (0 = all cores)")
		repeats     = flag.Int("repeats", 1, "runs per (strategy x IUT) cell, with distinct derived seeds")
		seed        = flag.Int64("seed", 1, "campaign seed (mutant sampling, per-repeat seeds)")
		jsonOut     = flag.String("json", "", "write the JSON report to this file")
		timing      = flag.Bool("timing", false, "include volatile wall-clock timings in the JSON report")
		connect     = flag.String("connect", "", "also test a remote IUT served at this address (adapter protocol)")
		solvWorkers = flag.Int("solver-workers", 1, "strategy-synthesis exploration workers (0 = all cores)")
		sharedCore  = flag.Bool("shared-core", true, "solve edge goals as ghost overlays on one shared explored core (false: re-explore a clone per edge; reports are identical either way)")
		compile     = flag.Bool("compile", true, "execute through compiled strategy decision tables (false: interpreted consultation; reports are identical either way)")
		incremental = flag.Bool("incremental", true, "re-solve suite purposes on mutants incrementally over the shared core's dirty cone (false: re-explore each mutant cold; reports are identical either way)")
		timeout     = flag.Duration("timeout", 0, "abort the campaign cooperatively after this long (0 = none); SIGINT aborts the same way")
	)
	flag.Parse()

	// One cancel channel threads through planner, solver and executor:
	// closed by -timeout or the first SIGINT (a second SIGINT kills hard).
	cancel := make(chan struct{})
	var once sync.Once
	cancelOnce := func() { once.Do(func() { close(cancel) }) }
	if *timeout > 0 {
		t := time.AfterFunc(*timeout, cancelOnce)
		defer t.Stop()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "campaign: interrupt — aborting cooperatively (interrupt again to kill)")
		cancelOnce()
		signal.Stop(sig)
	}()

	sys, env, plant, err := loadModel(*modelName, *file, *nodes, *plantList)
	if err != nil {
		fatal(err)
	}
	cov, err := campaign.ParseCoverage(*coverage)
	if err != nil {
		fatal(err)
	}

	rep, err := campaign.Run(sys, env, campaign.Options{
		Coverage:           cov,
		Plant:              plant,
		Mutants:            *mutants,
		Workers:            *workers,
		Repeats:            *repeats,
		Seed:               *seed,
		Solver:             game.Options{Workers: *solvWorkers, Cancel: cancel},
		RemoteAddr:         *connect,
		DisableSharedCore:  !*sharedCore,
		DisableCompile:     !*compile,
		DisableIncremental: !*incremental,
	})
	if err != nil {
		if errors.Is(err, game.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "campaign: canceled (timeout or interrupt); no report produced")
			os.Exit(3)
		}
		fatal(err)
	}

	rep.Render(os.Stdout)
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(f, *timing); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *jsonOut)
	}

	// Exit 2 when the campaign itself is defective: a winnable goal whose
	// conformant run did not attain it, or a failure against either
	// conformant determinization (eager or lazy — both are sound
	// implementations of the specification).
	defective := rep.Summary.Covered < rep.Summary.Coverable
	for _, row := range rep.Matrix {
		if row.IUT != "conformant" && row.IUT != campaign.LazyRowName {
			continue
		}
		for _, c := range row.Cells {
			if c.Fail > 0 {
				defective = true
			}
		}
	}
	if defective {
		fmt.Fprintln(os.Stderr, "campaign: missed coverable goals or conformant failures (see report)")
		os.Exit(2)
	}
}

// loadModel resolves the specification, its parse environment and the
// plant process indices.
func loadModel(modelName, file string, nodes int, plantList string) (*model.System, *tctl.ParseEnv, []int, error) {
	var sys *model.System
	var env *tctl.ParseEnv
	var plant []int
	switch {
	case file != "":
		if modelName != "" {
			return nil, nil, nil, fmt.Errorf("-model and -file are mutually exclusive")
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, nil, nil, err
		}
		f, err := dsl.Parse(string(data))
		if err != nil {
			return nil, nil, nil, err
		}
		sys, env = f.Sys, f.ParseEnv()
	default:
		if modelName == "" {
			modelName = "smartlight"
		}
		var err error
		sys, env, plant, _, err = models.ByName(modelName, nodes)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	if plantList != "" {
		plant = nil
		for _, name := range strings.Split(plantList, ",") {
			name = strings.TrimSpace(name)
			pi, ok := sys.ProcByName(name)
			if !ok {
				return nil, nil, nil, fmt.Errorf("-plant: no process named %q in %s", name, sys.Name)
			}
			plant = append(plant, pi)
		}
	}
	return sys, env, plant, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaign:", err)
	os.Exit(1)
}
