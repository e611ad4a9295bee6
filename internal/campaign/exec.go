package campaign

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tigatest/internal/model"
	"tigatest/internal/mutate"
	"tigatest/internal/tiots"
)

// IUTRow is one implementation row of the verdict matrix.
type IUTRow struct {
	// Name identifies the row: "conformant", a mutant description, or
	// "remote:<addr>".
	Name string
	// Operator is the mutation operator ("" for non-mutant rows).
	Operator string
	// Factory builds fresh instances for runs.
	Factory IUTFactory
	// Sys is the full mutated system behind a mutant row (nil for the
	// conformant, lazy and remote rows). The incremental analysis phase
	// diffs it against the specification to re-solve the suite's purposes
	// on the mutant's dirty cone only.
	Sys *model.System
}

// LazyRowName is the matrix row of the lazy-but-conformant determinization
// (outputs fire at window close), present when the planned suite contains
// lazy-recovered entries.
const LazyRowName = "conformant-lazy"

// BuildIUTs assembles the implementation rows of the campaign: the
// conformant extraction of the specification first — plus its lazy
// determinization when the suite has lazy-recovered entries (lazyRow) —
// then the mutants (exhaustive per (operator, site), or Mutants > 0 random
// ones sampled with the campaign seed), then the optional remote row.
func BuildIUTs(sys *model.System, opts *Options, lazyRow bool) ([]*IUTRow, error) {
	impl := model.ExtractPlant(sys, opts.Plant, "Stub")
	rows := []*IUTRow{{Name: "conformant", Factory: LocalIUT(impl, opts.Exec.Scale, nil)}}
	if lazyRow {
		rows = append(rows, &IUTRow{Name: LazyRowName, Factory: LocalIUT(impl, opts.Exec.Scale, tiots.LazyPolicy())})
	}

	var muts []*mutate.Mutant
	switch {
	case opts.Mutants == 0:
		muts = mutate.All(sys, opts.Plant, 0)
	case opts.Mutants > 0:
		muts = mutate.Sample(sys, opts.Plant, opts.Mutants, rand.New(rand.NewSource(opts.Seed)))
	}
	for _, m := range muts {
		rows = append(rows, &IUTRow{
			Name:     m.Operator + ": " + m.Description,
			Operator: m.Operator,
			Factory:  LocalIUT(model.ExtractPlant(m.Sys, opts.Plant, "Stub"), opts.Exec.Scale, m.Policy),
			Sys:      m.Sys,
		})
	}
	if opts.RemoteAddr != "" {
		rows = append(rows, &IUTRow{Name: "remote:" + opts.RemoteAddr, Factory: RemoteIUT(opts.RemoteAddr)})
	}
	return rows, nil
}

// Execute runs every (entry × row) cell on Options.Workers goroutines and
// returns the tally matrix indexed [row][entry]. Cells only read the
// shared strategies and build per-run IUT instances, so any schedule
// produces the same matrix; results are stored by index, keeping reports
// deterministic.
func Execute(suite *Suite, rows []*IUTRow, opts *Options) [][]CellTally {
	matrix := make([][]CellTally, len(rows))
	type task struct{ row, entry int }
	tasks := make([]task, 0, len(rows)*len(suite.Entries))
	for ri := range rows {
		matrix[ri] = make([]CellTally, len(suite.Entries))
		for ei := range suite.Entries {
			tasks = append(tasks, task{ri, ei})
		}
	}

	workers := opts.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				if canceled(opts.Solver.Cancel) != nil {
					// Leave the remaining cells zero; campaign.Run refuses
					// to report a partial matrix.
					return
				}
				t := tasks[i]
				entry := suite.Entries[t.entry]
				// One consultant per entry, shared by every IUT row and every
				// repeat touching this strategy: the compiled tables are built
				// once at plan time, never per cell.
				runner := &Runner{Strategy: entry.consult, Exec: opts.Exec}
				// The cell seed mixes the campaign seed with the cell
				// coordinates so every cell draws an independent stream
				// regardless of scheduling.
				cellSeed := deriveSeed(opts.Seed, t.row*len(suite.Entries)+t.entry)
				if opts.ObserveCell != nil {
					t0 := time.Now()
					matrix[t.row][t.entry] = runner.RunCell(rows[t.row].Factory, opts.Repeats, cellSeed)
					opts.ObserveCell(time.Since(t0))
				} else {
					matrix[t.row][t.entry] = runner.RunCell(rows[t.row].Factory, opts.Repeats, cellSeed)
				}
			}
		}()
	}
	wg.Wait()
	return matrix
}
