// Command lep reproduces Table 1 of the paper: strategy-generation time
// and memory for the Leader Election Protocol with n = 3..8 nodes and the
// three test purposes TP1, TP2 and TP3, with "/" marking cells whose
// resource budget was exhausted (the paper's out-of-memory marker).
//
// Usage:
//
//	lep -table1                  # the full grid (budgeted; takes a while)
//	lep -table1 -max 5           # stop at n=5
//	lep -n 4 -tp TP2             # a single cell, verbose
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"tigatest/internal/game"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

var tps = []struct {
	name string
	src  string
}{
	{"TP1", models.LEPTP1},
	{"TP2", models.LEPTP2},
	{"TP3", models.LEPTP3},
}

func main() {
	var (
		table1      = flag.Bool("table1", false, "reproduce the paper's Table 1")
		minN        = flag.Int("min", 3, "smallest n")
		maxN        = flag.Int("max", 8, "largest n")
		n           = flag.Int("n", 3, "single-cell mode: number of nodes")
		tp          = flag.String("tp", "TP1", "single-cell mode: TP1|TP2|TP3")
		budget      = flag.Duration("budget", 120*time.Second, "per-cell time budget")
		memMB       = flag.Uint64("mem", 2048, "per-cell memory budget (MiB)")
		workers     = flag.Int("workers", 0, "exploration workers (0 = all cores)")
		propWorkers = flag.Int("prop-workers", 0, "propagation workers (0 = same as -workers)")
	)
	flag.Parse()

	if *table1 {
		printTable1(*minN, *maxN, *budget, *memMB<<20, *workers, *propWorkers)
		return
	}
	src := ""
	for _, t := range tps {
		if t.name == *tp {
			src = t.src
		}
	}
	if src == "" {
		fmt.Fprintf(os.Stderr, "lep: unknown test purpose %q\n", *tp)
		os.Exit(1)
	}
	cell := solveCell(*n, src, *budget, *memMB<<20, *workers, *propWorkers)
	fmt.Printf("n=%d %s: %s\n", *n, *tp, cell.verbose())
}

type cellResult struct {
	ok       bool
	winnable bool
	dur      time.Duration
	heap     uint64
	nodes    int
	err      error
}

func (c cellResult) String() string {
	if !c.ok {
		return "/"
	}
	return fmt.Sprintf("%.2f", c.dur.Seconds())
}

func (c cellResult) mem() string {
	if !c.ok {
		return "/"
	}
	return fmt.Sprintf("%d", c.heap>>20)
}

func (c cellResult) verbose() string {
	if !c.ok {
		return fmt.Sprintf("/ (budget exhausted: %v)", c.err)
	}
	return fmt.Sprintf("winnable=%v time=%v heap=%dMiB states=%d", c.winnable, c.dur.Round(time.Millisecond), c.heap>>20, c.nodes)
}

func solveCell(n int, src string, budget time.Duration, memBudget uint64, workers, propWorkers int) cellResult {
	// Isolate heap accounting per cell.
	runtime.GC()
	debug.FreeOSMemory()
	sys := models.LEP(models.LEPOptions{Nodes: n})
	f, err := tctl.Parse(models.LEPEnv(sys, n), src)
	if err != nil {
		return cellResult{err: err}
	}
	res, err := game.Solve(sys, f, game.Options{
		EarlyTermination:   true,
		TimeBudget:         budget,
		MemBudget:          memBudget,
		Workers:            workers,
		PropagationWorkers: propWorkers,
	})
	if err != nil {
		return cellResult{err: err}
	}
	return cellResult{
		ok:       true,
		winnable: res.Winnable,
		dur:      res.Stats.Duration,
		heap:     res.Stats.PeakHeapBytes,
		nodes:    res.Stats.Nodes,
	}
}

func printTable1(minN, maxN int, budget time.Duration, memBudget uint64, workers, propWorkers int) {
	fmt.Println("Table 1 reproduction: strategy generation for the LEP protocol")
	fmt.Printf("(per-cell budget: %v / %d MiB; '/' = budget exhausted, the paper's out-of-memory)\n\n", budget, memBudget>>20)

	type row struct {
		name  string
		cells []cellResult
	}
	var rows []row
	for _, t := range tps {
		r := row{name: t.name}
		for n := minN; n <= maxN; n++ {
			cell := solveCell(n, t.src, budget, memBudget, workers, propWorkers)
			r.cells = append(r.cells, cell)
			fmt.Fprintf(os.Stderr, "  solved %s n=%d: %s\n", t.name, n, cell.verbose())
		}
		rows = append(rows, r)
	}

	print := func(title string, f func(cellResult) string) {
		fmt.Printf("\n%s\n", title)
		fmt.Printf("%-5s", "")
		for n := minN; n <= maxN; n++ {
			fmt.Printf("%10s", fmt.Sprintf("n=%d", n))
		}
		fmt.Println()
		for _, r := range rows {
			fmt.Printf("%-5s", r.name)
			for _, c := range r.cells {
				fmt.Printf("%10s", f(c))
			}
			fmt.Println()
		}
	}
	print("Time (s)", func(c cellResult) string { return c.String() })
	print("Memory (MB)", func(c cellResult) string { return c.mem() })

	fmt.Println("\nPaper's Table 1 (dual-core 2.4GHz, 4GB, UPPAAL-TIGA, 2008) for comparison:")
	fmt.Println("Time (s)        n=3     n=4     n=5     n=6     n=7     n=8")
	fmt.Println("TP1            0.03    0.14     0.7     3.1    11.1    33.5")
	fmt.Println("TP2            0.81    2.13     8.4    67.1   452.0       /")
	fmt.Println("TP3            0.89    2.79    25.9    73.2   453.8       /")
	fmt.Println("Memory (MB)     n=3     n=4     n=5     n=6     n=7     n=8")
	fmt.Println("TP1             0.1       4       9      28      85     242")
	fmt.Println("TP2            11.2      33      88     462    2977       /")
	fmt.Println("TP3            11.9      40     289     578    3015       /")
}
