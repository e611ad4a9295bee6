package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tigatest/internal/cluster"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/obs"
	"tigatest/internal/service"
	"tigatest/internal/tctl"
	"tigatest/internal/tiots"
)

// tigad is the serving path: two test sessions on member m0 of an
// in-process two-member fleet over loopback, stepping in rounds: both send
// a request, and both send the next once both replies arrived. Test
// sessions wait for every reply, so the loop is closed; sessions left to
// run free fall in and out of step, which moved the median request by a
// quarter between runs. An open loop cannot be timed here (time.Sleep
// overshoots by about a millisecond against a 65 µs hit). Hits exercise
// the protocol, session and cache layers; the first touch of a cold key is
// a local miss (owner m0) or a peer forward (owner m1). The tail reported
// is p95: p99 and above move with the host's stalls (two sets of ten runs
// spread the p99 by 0.26 and 0.09 of its median, the p95 of the second set
// by 0.05).
var tigadWorkload = &workload{
	name:     "tigad",
	why:      "2 sessions in lockstep on an in-process 2-member fleet: hot strategy fetches, local and inline runs, cold synthesize misses and peer forwards",
	callers:  tigadCallers,
	cycle:    10,
	tail:     95,
	coldTail: 95,
	start:    startTigad,
}

// tigadCallers is the number of test sessions, one per CPU of the
// reference host.
const tigadCallers = 2

// Request classes. A deck of ten is shuffled per caller every ten
// requests, so each block of ten holds exactly this mix.
const (
	classHit     = "hit"     // strategy fetch of a hot key
	classLocal   = "local"   // run against the daemon's conformant IUT
	classInline  = "inline"  // run against an IUT the client hosts
	classSynth   = "synth"   // synthesize of an already-minted key
	classMiss    = "miss"    // ... first touch, owner m0: a local solve
	classForward = "forward" // ... first touch, owner m1: a peer forward
)

var tigadDeck = []string{
	classHit, classHit, classHit, classHit, classHit, classHit,
	classLocal, classLocal, classInline, classSynth,
}

// tigadHot are the hot keys: location purposes of both models whose
// strategies pass against the conformant implementation.
var tigadHot = []struct{ model, purpose string }{
	{"smartlight", "control: A<> IUT.Dim"},
	{"smartlight", "control: A<> IUT.Bright"},
	{"smartlight", "control: A<> IUT.L1"},
	{"smartlight", "control: A<> IUT.L3"},
	{"smartlight", "control: A<> IUT.L4"},
	{"smartlight", "control: A<> IUT.L5"},
	{"smartlight", "control: A<> IUT.L6"},
	{"traingate", "control: A<> Train.Crossing"},
	{"traingate", "control: A<> Gate.Lowering"},
	{"traingate", "control: A<> Gate.Closed"},
	{"traingate", "control: A<> Gate.Raising"},
}

// tigadMaxK bounds the cold purposes "<plant location> and <clock> <op> K"
// for the four comparisons: 164 keys per K, 984 in all. Each key is a new
// cache entry holding a compiled strategy (about 100 KiB), so the key set
// grows the daemons' memory the way mutant families do.
const (
	tigadMaxK      = 5
	tigadQuickMaxK = 0
)

type tigadModel struct {
	sys   *model.System
	env   *tctl.ParseEnv
	impl  *model.System
	plant []int
}

type hotKey struct {
	model, purpose string
	enc            []byte // the encoding the warm-up fetch decoded and checked
}

type coldKey struct {
	model, purpose string
	remote         bool // owned by m1: the first touch is a peer forward
}

type tigadCaller struct {
	cli  *service.Client
	rng  *rand.Rand
	deck []string
	iuts map[string]tiots.IUT // inline IUT per model
}

type tigadRun struct {
	svcs    []*service.Service
	trs     []*cluster.Tracker
	callers []*tigadCaller
	models  map[string]*tigadModel
	hot     []*hotKey
	cold    []coldKey
	base    []*service.Stats

	// Cold keys are released at a steady pace over the first 90% of the
	// timed phase, so cold latencies sample the whole run and every run
	// mints the same keys whatever its throughput.
	t0      time.Time     // start of the timed phase
	release time.Duration // interval between two releases
	minted  atomic.Int64  // cold keys handed out so far

	mu          sync.Mutex // traced-run accumulators
	nodes       []float64  // per traced cold synthesize
	transitions []float64
}

func startTigad(cfg *config) (inst instance, err error) {
	r := &tigadRun{models: map[string]*tigadModel{}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	for _, name := range []string{"smartlight", "traingate"} {
		sys, env, plant, _, err := models.ByName(name, 0)
		if err != nil {
			return nil, err
		}
		r.models[name] = &tigadModel{sys: sys, env: env, impl: model.ExtractPlant(sys, plant, "Stub"), plant: plant}
	}

	// Fixed member IDs make key ownership independent of the ephemeral
	// ports, so every run splits its keys between m0 and m1 identically.
	members := make([]cluster.Member, 2)
	for i := range members {
		s := service.New(service.Options{})
		r.svcs = append(r.svcs, s)
		for _, name := range []string{"smartlight", "traingate"} {
			sys, env, plant, _, err := models.ByName(name, 0)
			if err != nil {
				return nil, err
			}
			if err := s.AddModel(sys, env, plant); err != nil {
				return nil, err
			}
		}
		if err := s.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		members[i] = cluster.Member{ID: fmt.Sprintf("m%d", i), Addr: s.Addr()}
	}
	for i, s := range r.svcs {
		tr, err := cluster.NewTracker(members[i], cluster.StaticStore(members), cluster.TrackerOptions{})
		if err != nil {
			return nil, err
		}
		r.trs = append(r.trs, tr)
		if err := s.EnableCluster(service.ClusterOptions{Tracker: tr}); err != nil {
			return nil, err
		}
		tr.Start()
	}

	for c := range tigadCallers {
		cli, err := service.Dial(members[0].Addr)
		if err != nil {
			return nil, err
		}
		tc := &tigadCaller{
			cli:  cli,
			rng:  rand.New(rand.NewSource(cfg.seed*7919 + int64(c))),
			deck: append([]string(nil), tigadDeck...),
			iuts: map[string]tiots.IUT{},
		}
		for name, m := range r.models {
			tc.iuts[name] = tiots.NewDetIUT(m.impl, tiots.Scale, nil)
		}
		r.callers = append(r.callers, tc)
	}

	// Warm-up: fetch every hot key once, decode it against the client's
	// own model and check the advertised checksum. Later fetches must
	// return these bytes.
	for _, h := range tigadHot {
		si, err := r.callers[0].cli.Strategy(h.model, h.purpose, "")
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", h.purpose, err)
		}
		cs, err := game.Decode(r.models[h.model].sys, si.Encoded)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: decode: %w", h.purpose, err)
		}
		if sum := fmt.Sprintf("%016x", cs.Checksum()); sum != si.Checksum {
			return nil, fmt.Errorf("warm-up %s: checksum %s, advertised %s", h.purpose, sum, si.Checksum)
		}
		r.hot = append(r.hot, &hotKey{model: h.model, purpose: h.purpose, enc: si.Encoded})
	}

	maxK := tigadMaxK
	if cfg.quick {
		maxK = tigadQuickMaxK
	}
	if r.cold, err = r.coldKeys(members, maxK); err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(r.cold), func(i, j int) { r.cold[i], r.cold[j] = r.cold[j], r.cold[i] })

	r.release = max(time.Duration(0.9*cfg.seconds*float64(time.Second))/time.Duration(len(r.cold)), 1)
	for _, s := range r.svcs {
		r.base = append(r.base, s.StatsSnapshot())
	}
	r.t0 = time.Now()
	return r, nil
}

// coldKeys lists every plant location of both models bounded by each
// model clock, for K in 0..maxK, and marks the keys m1 owns on the ring
// the daemons build.
func (r *tigadRun) coldKeys(members []cluster.Member, maxK int) ([]coldKey, error) {
	ring := cluster.BuildRing(members, 0)
	var keys []coldKey
	for _, name := range []string{"smartlight", "traingate"} {
		m := r.models[name]
		hash := m.sys.Hash()
		for _, pi := range m.plant {
			p := m.sys.Procs[pi]
			for _, loc := range p.Locations {
				for _, clk := range m.sys.Clocks[1:] {
					for k := 0; k <= maxK; k++ {
						for _, cmp := range []string{"<=", "<", ">=", ">"} {
							src := fmt.Sprintf("control: A<> %s.%s and %s %s %d", p.Name, loc.Name, clk.Name, cmp, k)
							f, err := tctl.Parse(m.env, src)
							if err != nil {
								return nil, err
							}
							h := cluster.StrategyKeyHash(hash, game.ExtrapolationSignature(m.sys, f), f.String(), "auto")
							keys = append(keys, coldKey{model: name, purpose: src, remote: ring.Owner(h).ID != members[0].ID})
						}
					}
				}
			}
		}
	}
	return keys, nil
}

func (r *tigadRun) op(caller, seq int, ot *opTrace) opResult {
	tc := r.callers[caller]
	if seq%len(tc.deck) == 0 {
		tc.rng.Shuffle(len(tc.deck), func(i, j int) { tc.deck[i], tc.deck[j] = tc.deck[j], tc.deck[i] })
	}
	class := tc.deck[seq%len(tc.deck)]
	res := opResult{class: class}
	var req service.Request
	var iut tiots.IUT
	var hot *hotKey
	switch class {
	case classSynth:
		due := min(int64(time.Since(r.t0)/r.release)+1, int64(len(r.cold)))
		n := r.minted.Load()
		var k coldKey
		if n < due && r.minted.CompareAndSwap(n, n+1) {
			k = r.cold[n]
			res.cold = true
			res.class = classMiss
			if k.remote {
				res.class = classForward
			}
		} else {
			k = r.cold[tc.rng.Intn(int(r.minted.Load()))]
		}
		req = service.Request{Op: "synthesize", Model: k.model, Purpose: k.purpose}
	default:
		hot = r.hot[tc.rng.Intn(len(r.hot))]
		req = service.Request{Model: hot.model, Purpose: hot.purpose}
		switch class {
		case classHit:
			req.Op = "strategy"
		case classLocal:
			req.Op, req.IUT = "run", "local"
		case classInline:
			req.Op, req.IUT = "run", "inline"
			iut = tc.iuts[hot.model]
		}
	}
	// One request in a hundred of a traced run carries a trace ID, and the
	// daemon's spans for it are fetched once the latency is taken.
	if ot != nil && seq%100 == 0 {
		req.TraceID = obs.FormatID(uint64(ot.id) | 1<<62)
		res.after = func() { fetchSpans(tc.cli, req.TraceID, ot) }
	}

	resp, err := tc.cli.Do(req, iut)
	switch {
	case err != nil:
		res.err = err
	case !resp.OK:
		res.err = fmt.Errorf("%s %s: not ok", req.Op, req.Purpose)
	case req.Op == "strategy":
		if resp.Strategy == nil || !bytes.Equal(resp.Strategy.Encoded, hot.enc) {
			res.err = fmt.Errorf("strategy %s: bytes differ from the first fetch", req.Purpose)
		}
	case req.Op == "run":
		if resp.Run == nil || resp.Run.Verdict != "pass" {
			res.err = fmt.Errorf("run %s (%s): verdict %v", req.Purpose, req.IUT, resp.Run)
		}
	case resp.Synth == nil:
		res.err = fmt.Errorf("synthesize %s: no outcome", req.Purpose)
	case res.cold && ot != nil:
		r.mu.Lock()
		r.nodes = append(r.nodes, float64(resp.Synth.Nodes))
		r.transitions = append(r.transitions, float64(resp.Synth.Transitions))
		r.mu.Unlock()
	}
	return res
}

// fetchSpans pulls the daemon's spans of one sampled request through the
// trace op and files them under the op, keeping their nesting. A failed
// fetch only leaves the sample out; the request itself was already
// checked.
func fetchSpans(cli *service.Client, traceID string, ot *opTrace) {
	recs, err := cli.Trace(traceID, 0)
	if err != nil {
		return
	}
	ids := map[string]int64{}
	for _, rec := range recs {
		ids[rec.SpanID] = ot.t.newID()
	}
	for _, rec := range recs {
		parent, ok := ids[rec.ParentID]
		if !ok {
			parent = ot.id
		}
		ot.t.add(span{
			ID:     ids[rec.SpanID],
			Parent: parent,
			Op:     ot.id,
			Name:   "daemon." + rec.Name,
			Start:  rec.StartUnixNano,
			End:    rec.StartUnixNano + rec.DurationNanos,
		})
	}
}

func (r *tigadRun) layers(spans []span, ops []opRecord) map[string]float64 {
	m := map[string]float64{}
	reqs := float64(max(len(ops), 1))
	for _, c := range []struct{ metric, class string }{
		{"service.hit", classHit},
		{"service.run_local", classLocal},
		{"service.run_inline", classInline},
		{"service.miss", classMiss},
	} {
		vs := tracedLatencies(ops, c.class)
		m[c.metric+"_p50_ms"] = percentile(vs, 50)
		m[c.metric+"_p99_ms"] = percentile(vs, 99)
	}
	m["cluster.forward_ms"] = percentile(tracedLatencies(ops, classForward), 50)

	// The daemon's request span of each sampled request, and the client
	// time a sampled hit spends outside it: encoding, loopback and
	// decoding on both sides.
	var server, protocol []float64
	for _, g := range opSpans(spans) {
		for _, c := range g.children {
			if !strings.HasPrefix(c.Name, "daemon.request.") {
				continue
			}
			server = append(server, ms(c.dur()))
			if g.root.Name == "op."+classHit {
				protocol = append(protocol, ms(g.root.dur()-c.dur()))
			}
		}
	}
	m["service.server_p50_ms"] = median(server)
	m["service.protocol_ms"] = median(protocol)

	var hits, misses, joined, entries, solves int64
	var solveNs, exploreNs, condenseNs, propagateNs, overlayNs int64
	var compiles, compileNs int64
	for i, s := range r.svcs {
		now, was := s.StatsSnapshot(), r.base[i]
		hits += now.Cache.Hits - was.Cache.Hits
		misses += now.Cache.Misses - was.Cache.Misses
		joined += now.Cache.Joined - was.Cache.Joined
		entries += int64(now.Cache.Entries)
		solves += now.Solver.Solves - was.Solver.Solves
		solveNs += now.Solver.SolveNanos - was.Solver.SolveNanos
		exploreNs += now.Solver.ExploreNanos - was.Solver.ExploreNanos
		condenseNs += now.Solver.CondenseNanos - was.Solver.CondenseNanos
		propagateNs += now.Solver.PropagateNanos - was.Solver.PropagateNanos
		overlayNs += now.Solver.OverlayNanos - was.Solver.OverlayNanos
		n, ns := histTotals(now, "tigad_compile_duration_seconds")
		n0, ns0 := histTotals(was, "tigad_compile_duration_seconds")
		compiles += n - n0
		compileNs += ns - ns0
		if i == 0 {
			var hitOps int
			for _, o := range ops {
				if o.class == classHit {
					hitOps++
				}
			}
			m["service.bytes_per_req"] = float64(now.Cache.CompiledBytes-was.Cache.CompiledBytes) / float64(max(hitOps, 1))
			if now.Cluster != nil && was.Cluster != nil {
				m["cluster.forwards"] = float64(now.Cluster.Forwards - was.Cluster.Forwards)
				m["cluster.peer_hits"] = float64(now.Cluster.PeerHits - was.Cluster.PeerHits)
				m["cluster.forward_failures"] = float64(now.Cluster.ForwardFailures - was.Cluster.ForwardFailures)
				m["cluster.fallbacks"] = float64(now.Cluster.OwnerLocalFallbacks - was.Cluster.OwnerLocalFallbacks)
			}
		}
	}
	m["service.cache_hits"] = float64(hits)
	m["service.cache_misses"] = float64(misses)
	m["service.cache_joined"] = float64(joined)
	m["service.cache_entries"] = float64(entries)
	if hits+misses > 0 {
		m["service.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["service.solve_ms"] = float64(solveNs) / 1e6 / reqs
	if compiles > 0 {
		m["service.compile_ms"] = float64(compileNs) / 1e6 / float64(compiles)
	}

	m["game.solves"] = float64(solves) / reqs
	if solves > 0 {
		n := float64(solves) * 1e6
		m["game.solve_ms"] = float64(solveNs) / n
		m["game.explore_ms"] = float64(exploreNs) / n
		m["game.condense_ms"] = float64(condenseNs) / n
		m["game.propagate_ms"] = float64(propagateNs) / n
		m["game.overlay_ms"] = float64(overlayNs) / n
		m["game.unattributed_ms"] = float64(solveNs-exploreNs-propagateNs-overlayNs) / n
	}
	r.mu.Lock()
	m["game.nodes"] = mean(r.nodes)
	m["game.transitions"] = mean(r.transitions)
	r.mu.Unlock()
	return m
}

// histTotals returns the observation count and total of one of a
// daemon's latency histograms.
func histTotals(st *service.Stats, name string) (count, sumNanos int64) {
	for _, h := range st.Latency {
		if h.Name == name {
			return h.Count, h.SumNanos
		}
	}
	return 0, 0
}

func (r *tigadRun) close() {
	for _, c := range r.callers {
		c.cli.Close()
	}
	for _, s := range r.svcs {
		s.Drain()
	}
	for _, tr := range r.trs {
		tr.Close()
	}
}
