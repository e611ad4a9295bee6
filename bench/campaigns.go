package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tigatest/internal/campaign"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

// campaignSpec is one campaign workload's inputs.
type campaignSpec struct {
	model    string
	nodes    int // LEP size (ignored for other models)
	coverage campaign.Coverage
	// family is the fixed set of campaign seeds the ops cycle through and
	// killed, parallel to it, the mutants each of those campaigns kills.
	// Which 12 mutants a campaign seed samples moves its cost by up to 2x,
	// so the workload seed only orders the family: every run does the
	// same mix of work whatever its seed.
	family []int64
	killed []int
}

// campaignLEP drives the game layer the way mutation analysis does: the
// Batch skeleton, ghost overlays, SolveDelta and incremental SCC on the
// serial engine. A change that speeds cold solves but slows reuse shows up
// here and not in table1. Execution does almost nothing.
var campaignLEP = campaignWorkload("campaign-lep", "LEP n=3 campaign: Batch reuse, ghost overlays, SolveDelta and incremental SCC on the serial engine", 90, lepCampaign)

var lepCampaign = &campaignSpec{
	model:    "lep",
	nodes:    3,
	coverage: campaign.CoverLocations | campaign.CoverEdges,
	family:   []int64{1, 2, 3, 4, 5, 6, 7, 8},
	killed:   []int{8, 11, 9, 12, 10, 7, 8, 9},
}

// campaignSmartlight is Fig. 5 synthesis plus many Algorithm 3.1 runs:
// most of its time is texec, compiled consultation, the tiots IUT and the
// tioco monitor, including step-budget inconclusive runs. The solver does
// little.
var campaignSmartlight = campaignWorkload("campaign-smartlight", "Smart Light edge-coverage campaign: Algorithm 3.1 execution, compiled consultation and the tioco monitor", 60, smartlightCampaign)

var smartlightCampaign = &campaignSpec{
	model:    "smartlight",
	coverage: campaign.CoverEdges,
	family:   []int64{1, 2, 3, 4, 5, 6, 7, 8},
	killed:   []int{6, 3, 7, 5, 6, 5, 6, 4},
}

func campaignWorkload(name, why string, tail float64, spec *campaignSpec) *workload {
	return &workload{
		name:     name,
		why:      why,
		callers:  1,
		cycle:    len(spec.family),
		tail:     tail,
		coldTail: tail,
		start:    func(cfg *config) (instance, error) { return startCampaign(spec, cfg) },
	}
}

type campaignRun struct {
	spec  *campaignSpec
	sys   *model.System
	env   *tctl.ParseEnv
	plant []int
	order []int // family indices in seeded order
	// digests holds each campaign seed's canonical report digest; every
	// later op on that seed must reproduce it.
	digests map[int64][32]byte

	// Traced-op accumulators; cells report from executor goroutines.
	mu     sync.Mutex
	solves []solveSample
	cellMS []float64
	vol    []campaign.Volatile
	cells  int
	runs   int
	incon  int
}

func startCampaign(spec *campaignSpec, cfg *config) (instance, error) {
	sys, env, plant, _, err := models.ByName(spec.model, spec.nodes)
	if err != nil {
		return nil, err
	}
	r := &campaignRun{
		spec:    spec,
		sys:     sys,
		env:     env,
		plant:   plant,
		order:   rand.New(rand.NewSource(cfg.seed)).Perm(len(spec.family)),
		digests: map[int64][32]byte{},
	}
	// The warm-up is the same campaign whatever the seed, so set-up cost
	// does not depend on it.
	if err := r.run(0, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

func (r *campaignRun) op(_, seq int, ot *opTrace) opResult {
	return opResult{cold: true, err: r.run(r.order[seq%len(r.order)], ot)}
}

// run executes and checks the campaign of family member i.
func (r *campaignRun) run(i int, ot *opTrace) error {
	seed := r.spec.family[i]
	opts := campaign.Options{
		Coverage: r.spec.coverage,
		Plant:    r.plant,
		Mutants:  12,
		Workers:  2,
		Seed:     seed,
		Solver:   game.Options{Workers: 1},
	}
	if ot != nil {
		opts.SolveVia = func(key campaign.SolveKey, solve func() (*game.Result, error)) (*game.Result, error) {
			t0 := time.Now()
			res, err := solve()
			t1 := time.Now()
			name := "game.solve"
			if key.EditHash != 0 {
				name = "game.solve_delta"
			}
			ot.child(name, t0, t1)
			if err == nil {
				r.mu.Lock()
				r.solves = append(r.solves, solveSample{dur: t1.Sub(t0), delta: key.EditHash != 0, st: res.Stats})
				r.mu.Unlock()
			}
			return res, err
		}
		opts.ObserveCell = func(d time.Duration) {
			now := time.Now()
			ot.child("texec.cell", now.Add(-d), now)
			r.mu.Lock()
			r.cellMS = append(r.cellMS, ms(d))
			r.mu.Unlock()
		}
	}
	rep, err := campaign.Run(r.sys, r.env, opts)
	if err != nil {
		return err
	}
	if ot != nil {
		r.mu.Lock()
		r.vol = append(r.vol, *rep.Volatile)
		for _, row := range rep.Matrix {
			for _, c := range row.Cells {
				r.cells++
				r.runs += c.Pass + c.Fail + c.Incon
				r.incon += c.Incon
			}
		}
		r.mu.Unlock()
	}
	return r.check(seed, r.spec.killed[i], rep)
}

// check verifies a campaign report: full coverage of the coverable goals,
// no failure against either conformant determinization, the recorded
// mutation kill count, and a canonical report identical to every earlier
// op on the same campaign seed.
func (r *campaignRun) check(seed int64, killed int, rep *campaign.Report) error {
	if rep.Summary.Coverable == 0 || rep.Summary.Covered != rep.Summary.Coverable {
		return fmt.Errorf("seed %d: covered %d of %d coverable goals", seed, rep.Summary.Covered, rep.Summary.Coverable)
	}
	for _, row := range rep.Matrix {
		if row.IUT != "conformant" && row.IUT != campaign.LazyRowName {
			continue
		}
		for _, c := range row.Cells {
			if c.Fail > 0 {
				return fmt.Errorf("seed %d: %s row fails entry %d", seed, row.IUT, c.Entry)
			}
		}
	}
	if rep.Mutation == nil || rep.Mutation.Killed != killed {
		got := -1
		if rep.Mutation != nil {
			got = rep.Mutation.Killed
		}
		return fmt.Errorf("seed %d: killed %d mutants, want %d", seed, got, killed)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, false); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	if want, ok := r.digests[seed]; ok && want != sum {
		return fmt.Errorf("seed %d: canonical report differs from the run's first", seed)
	}
	r.digests[seed] = sum
	return nil
}

func (r *campaignRun) layers(spans []span, ops []opRecord) map[string]float64 {
	m := map[string]float64{}
	r.mu.Lock()
	defer r.mu.Unlock()
	nOps := countTraced(ops)
	gameLayers(m, r.solves, nOps)
	per := func(x float64) float64 { return x / float64(max(nOps, 1)) }

	var plan, exec, analyze []float64
	for _, v := range r.vol {
		plan = append(plan, float64(v.PlanMS))
		exec = append(exec, float64(v.ExecMS))
		analyze = append(analyze, float64(v.AnalyzeMS))
	}
	m["campaign.plan_ms"] = mean(plan)
	m["campaign.exec_ms"] = mean(exec)
	m["campaign.analyze_ms"] = mean(analyze)
	var planSolves, deltaSolves int
	var deltaDur time.Duration
	for _, s := range r.solves {
		if s.delta {
			deltaSolves++
			deltaDur += s.dur
		} else {
			planSolves++
		}
	}
	m["campaign.plan_solves"] = per(float64(planSolves))
	m["campaign.delta_solves"] = per(float64(deltaSolves))
	m["campaign.delta_solve_ms"] = per(ms(deltaDur))
	// Every child span of a campaign op is a solve or a cell, so the op's
	// uncovered time is the campaign layer's own.
	m["campaign.self_ms"] = unattributedMS(spans)

	cells := sortedCopy(r.cellMS)
	m["texec.cell_p50_ms"] = percentile(cells, 50)
	m["texec.cell_p99_ms"] = percentile(cells, 99)
	m["texec.cells"] = per(float64(r.cells))
	m["texec.runs"] = per(float64(r.runs))
	if r.runs > 0 {
		m["texec.incon_share"] = float64(r.incon) / float64(r.runs)
	}
	return m
}

func (r *campaignRun) close() {}
