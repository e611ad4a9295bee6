// Command testexec runs strategy-based conformance tests (Algorithm 3.1)
// against simulated implementations, including the fault-detection
// campaign of the paper's future-work item 3.
//
// Usage:
//
//	testexec -model smartlight                     # one conformant run
//	testexec -model smartlight -campaign           # mutation campaign
//	testexec -model smartlight -serve :9000        # host an IUT over TCP
//	testexec -model smartlight -connect host:9000  # test a remote IUT
//	testexec -file m.tga -formula "control: A<> P.Goal" -plant P
//
// Models come from the built-in library (-model smartlight) or any file in
// the tigatest DSL (-file, like cmd/tiga). The plant — the processes that
// play the implementation under test — defaults to the model's convention
// (smartlight: the IUT process) or, for -file models, to every process
// that emits outputs or receives inputs; -plant overrides it with an
// explicit comma-separated process list.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"tigatest/internal/adapter"
	"tigatest/internal/campaign"
	"tigatest/internal/dsl"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/mutate"
	"tigatest/internal/tctl"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

func main() {
	var (
		modelName   = flag.String("model", "", "built-in model: smartlight (default when -file is absent)")
		file        = flag.String("file", "", "model file in the tigatest DSL")
		formula     = flag.String("formula", "", "test purpose (default: the built-in model's standard purpose)")
		plantList   = flag.String("plant", "", "comma-separated plant process names (default: model convention / output emitters)")
		runCampaign = flag.Bool("campaign", false, "run the mutation fault-detection campaign")
		perOp       = flag.Int("perop", 0, "mutants per operator in the campaign (0 = all)")
		serve       = flag.String("serve", "", "serve a conformant IUT on this address instead of testing")
		connect     = flag.String("connect", "", "test an IUT served at this address")
		workers     = flag.Int("workers", 0, "synthesis workers (0 = all cores)")
		propWorkers = flag.Int("prop-workers", 0, "propagation workers (0 = same as -workers)")
	)
	flag.Parse()

	f, src, err := loadSpec(*modelName, *file, *formula)
	if err != nil {
		fatal(err)
	}
	spec := f.Sys
	// The built-in plant convention applies only when the model IS the
	// built-in one (-file absent) — a user file merely named "smartlight"
	// must get the generic default, not a hardwired process index.
	plant, err := resolvePlant(spec, *file == "", *plantList)
	if err != nil {
		fatal(err)
	}

	if *serve != "" {
		// Factory mode: every connecting driver gets its own isolated IUT
		// instance, so parallel campaign cells can share this host.
		srv, err := adapter.ServeFactory(*serve, func() tiots.IUT {
			return tiots.NewDetIUT(model.ExtractPlant(spec, plant, "Stub"), tiots.Scale, nil)
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("serving conformant %s implementations on %s (ctrl-c to stop)\n", spec.Name, srv.Addr())
		select {}
	}

	purpose, err := tctl.Parse(f.ParseEnv(), src)
	if err != nil {
		fatal(err)
	}
	// Shared synthesis path (campaign cell runner): strict game first,
	// cooperative fallback per the paper's Section 3.2 ordering.
	res, err := campaign.Synthesize(spec, purpose, game.Options{Workers: *workers, PropagationWorkers: *propWorkers})
	if err != nil {
		fatal(err)
	}
	if !res.Winnable {
		fatal(fmt.Errorf("test purpose %s is not winnable, even cooperatively; no strategy to execute", src))
	}
	mode := "winning"
	if res.Strategy.Cooperative() {
		mode = "cooperative"
	}
	fmt.Printf("synthesized %s strategy for %s (%d symbolic states)\n\n", mode, purpose, res.Strategy.NumNodes())

	cs, err := res.CompiledStrategy()
	if err != nil {
		fatal(err)
	}
	runner := &campaign.Runner{Strategy: cs, Exec: texec.Options{PlantProcs: plant}}

	if *connect != "" {
		cli, err := adapter.Dial(*connect)
		if err != nil {
			fatal(err)
		}
		defer cli.Close()
		r := runner.RunOnce(cli)
		fmt.Printf("remote IUT at %s: %s\n", *connect, r)
		exitOn(r)
		return
	}

	if !*runCampaign {
		impl := model.ExtractPlant(spec, plant, "Stub")
		r := runner.RunOnce(tiots.NewDetIUT(impl, tiots.Scale, nil))
		fmt.Printf("conformant implementation: %s\n", r)
		fmt.Printf("trace: %s\n", r.Trace.Format(spec, tiots.Scale))
		exitOn(r)
		return
	}

	// Mutation campaign, one cell per mutant through the shared runner.
	muts := mutate.All(spec, plant, *perOp)
	fmt.Printf("fault-detection campaign: %d mutants\n\n", len(muts))
	byOp := map[string][3]int{} // killed, passed, inconclusive
	for _, m := range muts {
		factory := campaign.LocalIUT(model.ExtractPlant(m.Sys, plant, "Stub"), tiots.Scale, m.Policy)
		tally := runner.RunCell(factory, 1, 0)
		counts := byOp[m.Operator]
		switch tally.Verdict() {
		case texec.Fail:
			counts[0]++
		case texec.Pass:
			counts[1]++
		default:
			counts[2]++
		}
		byOp[m.Operator] = counts
		fmt.Printf("  %-60s %s\n", m.Description, tally.Verdict())
	}
	fmt.Println()
	ops := make([]string, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	totalKilled, total := 0, 0
	fmt.Printf("%-18s %8s %8s %8s %8s\n", "operator", "mutants", "killed", "passed", "incon")
	for _, op := range ops {
		c := byOp[op]
		n := c[0] + c[1] + c[2]
		fmt.Printf("%-18s %8d %8d %8d %8d\n", op, n, c[0], c[1], c[2])
		totalKilled += c[0]
		total += n
	}
	fmt.Printf("\nkill rate: %d/%d (%.0f%%)\n", totalKilled, total, 100*float64(totalKilled)/float64(total))
	fmt.Println("(surviving mutants hide outside the behaviour this test purpose exercises —")
	fmt.Println(" targeted testing is partially complete w.r.t. the purpose, Theorem 11)")
}

// loadSpec resolves the specification and the test-purpose source from the
// flags: a -file DSL model (formula required), or a built-in model with
// its standard purpose as the default.
func loadSpec(modelName, file, formula string) (*dsl.File, string, error) {
	switch {
	case file != "":
		if modelName != "" {
			return nil, "", fmt.Errorf("-model and -file are mutually exclusive")
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, "", err
		}
		f, err := dsl.Parse(string(data))
		if err != nil {
			return nil, "", err
		}
		if formula == "" {
			return nil, "", fmt.Errorf("-file models need an explicit -formula")
		}
		return f, formula, nil
	case modelName == "" || modelName == "smartlight":
		spec := models.SmartLight()
		if formula == "" {
			formula = models.SmartLightGoal
		}
		return &dsl.File{Sys: spec}, formula, nil
	default:
		return nil, "", fmt.Errorf("unknown -model %q; use smartlight or -file <path>", modelName)
	}
}

// resolvePlant determines which processes play the implementation under
// test: an explicit -plant list, the built-in model's convention, or — for
// file models — the texec.GuessPlantProcs default (processes emitting
// outputs or receiving inputs, the conventional IUT shape of Def. 3).
func resolvePlant(spec *model.System, builtin bool, plantList string) ([]int, error) {
	if plantList != "" {
		var plant []int
		for _, name := range strings.Split(plantList, ",") {
			name = strings.TrimSpace(name)
			pi, ok := spec.ProcByName(name)
			if !ok {
				return nil, fmt.Errorf("-plant: no process named %q in %s", name, spec.Name)
			}
			plant = append(plant, pi)
		}
		return plant, nil
	}
	if builtin {
		return models.SmartLightPlant(spec), nil
	}
	// The canonical default, shared with texec.Run and cmd/campaign:
	// processes that emit outputs or receive inputs.
	plant := texec.GuessPlantProcs(spec)
	if len(plant) == 0 {
		return nil, fmt.Errorf("no process of %s emits an output or receives an input; name the plant explicitly with -plant", spec.Name)
	}
	return plant, nil
}

func exitOn(r texec.Result) {
	if r.Verdict != texec.Pass {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "testexec:", err)
	os.Exit(1)
}
