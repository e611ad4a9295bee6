package game

import (
	"fmt"
	"testing"

	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

// TestBatchMatchesSolve pins the batch engine to the one-shot solver:
// winnability and semantic winning sets must agree for every purpose, with
// the zone graph explored only once.
func TestBatchMatchesSolve(t *testing.T) {
	sys := models.SmartLight()
	env := models.SmartLightEnv(sys)
	purposes := []string{
		"control: A<> IUT.Bright",
		"control: A<> IUT.Dim",
		"control: A<> IUT.L3",
		"control: A<> IUT.Off and User.Work",
	}
	for _, workers := range []int{1, 4} {
		b, err := NewBatch(sys, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range purposes {
			f := tctl.MustParse(env, src)
			br, err := b.Solve(f, false)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, src, err)
			}
			// Node numbering depends on the exploration order (one worker
			// is depth-first, a pool explores breadth-first rounds), so the
			// reference solve must use the same worker count. It runs the
			// SCC pass, the batch the seeded worklist: two schedules over
			// identical numbering.
			sr, err := Solve(sys, f, Options{Algorithm: Backward, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if br.Winnable != sr.Winnable {
				t.Fatalf("workers=%d %s: batch winnable=%v, solve winnable=%v", workers, src, br.Winnable, sr.Winnable)
			}
			if len(br.Win) != len(sr.Win) {
				t.Fatalf("workers=%d %s: batch explored %d nodes, solve %d", workers, src, len(br.Win), len(sr.Win))
			}
			for id, w := range sr.Win {
				if !br.Win[id].Equals(w) {
					t.Fatalf("workers=%d %s: winning set of node %d differs", workers, src, id)
				}
			}
		}
		if len(b.graphs) != 1 {
			t.Fatalf("workers=%d: purposes without clock atoms must share one skeleton, got %d", workers, len(b.graphs))
		}
	}
}

// TestBatchCooperativeFallback solves the paper's Section 3.2 ordering on
// one skeleton: the strict game loses, the cooperative game wins.
func TestBatchCooperativeFallback(t *testing.T) {
	sys := models.SmartLight()
	env := models.SmartLightEnv(sys)
	f := tctl.MustParse(env, "control: A<> IUT.Bright and z < 1")
	b, err := NewBatch(sys, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := b.Solve(f, false)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Winnable {
		t.Fatal("strict game must not be winnable")
	}
	coop, err := b.Solve(f, true)
	if err != nil {
		t.Fatal(err)
	}
	if !coop.Winnable {
		t.Fatal("cooperative game must be winnable")
	}
	if !coop.Strategy.Cooperative() {
		t.Fatal("fallback strategy must be marked cooperative")
	}
	// Clock atoms widen the extrapolation constants, so this formula gets
	// its own skeleton, shared between the strict and cooperative solves.
	if len(b.graphs) != 1 {
		t.Fatalf("strict and cooperative solves must share the skeleton, got %d", len(b.graphs))
	}
}

// TestBatchSkeletonStats pins the cache counters: the first purpose of a
// signature is a skeleton miss, every later one a hit.
func TestBatchSkeletonStats(t *testing.T) {
	sys := models.SmartLight()
	env := models.SmartLightEnv(sys)
	b, err := NewBatch(sys, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := b.Solve(tctl.MustParse(env, "control: A<> IUT.Bright"), false)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.SkeletonMisses != 1 || first.Stats.SkeletonHits != 0 {
		t.Fatalf("first purpose must miss the skeleton cache: %+v", first.Stats)
	}
	second, err := b.Solve(tctl.MustParse(env, "control: A<> IUT.Dim"), false)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.SkeletonHits != 1 || second.Stats.SkeletonMisses != 0 {
		t.Fatalf("second purpose must hit the skeleton cache: %+v", second.Stats)
	}
	if !second.Winnable {
		t.Fatal("Dim purpose must stay winnable on the reused skeleton")
	}
}

// TestFIFOCacheEviction pins the eviction order of the Batch caches at
// their cap: the oldest insertion goes first, and lookups do not refresh.
func TestFIFOCacheEviction(t *testing.T) {
	c := fifoCache[int, string]{max: 3}
	for k := 0; k < 3; k++ {
		c.put(k, fmt.Sprint(k))
	}
	if v, ok := c.get(0); !ok || v != "0" {
		t.Fatalf("entry 0 must be cached below the cap, got %q/%v", v, ok)
	}
	for k := 3; k < 5; k++ {
		c.put(k, fmt.Sprint(k))
		if _, ok := c.get(k - 3); ok {
			t.Fatalf("put %d at the cap must evict the oldest entry %d (lookups do not refresh)", k, k-3)
		}
		for live := k - 2; live <= k; live++ {
			if v, ok := c.get(live); !ok || v != fmt.Sprint(live) {
				t.Fatalf("after put %d: entry %d must survive, got %q/%v", k, live, v, ok)
			}
		}
	}
	if len(c.m) != 3 || len(c.order) != 3 {
		t.Fatalf("cache must hold exactly its cap: %d entries, %d in order", len(c.m), len(c.order))
	}
}

// TestBatchFixpointCacheCap drives the base-fixpoint cache one past its cap
// through Prepare: the first purpose prepared is the one evicted.
func TestBatchFixpointCacheCap(t *testing.T) {
	sys := models.SmartLight()
	env := models.SmartLightEnv(sys)
	b, err := NewBatch(sys, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var keys []fixKey
	for k := 0; len(keys) <= fixpointCacheCap; k++ {
		f := tctl.MustParse(env, fmt.Sprintf("control: A<> IUT.Bright and z >= %d", k))
		for _, coop := range []bool{false, true} {
			if err := b.Prepare(f, coop); err != nil {
				t.Fatal(err)
			}
			max := sys.MaxConstants(f.ClockConstraints())
			keys = append(keys, fixKey{sig: maxSignature(max), purpose: f.String(), coop: coop})
		}
	}
	if len(b.fixes.m) != fixpointCacheCap {
		t.Fatalf("fixpoint cache holds %d entries, cap %d", len(b.fixes.m), fixpointCacheCap)
	}
	evicted := len(keys) - fixpointCacheCap
	for i, k := range keys {
		if _, ok := b.fixes.get(k); ok != (i >= evicted) {
			t.Fatalf("purpose %d of %d: cached=%v, want the first %d evicted", i, len(keys), ok, evicted)
		}
	}
}

// TestExtrapolationSignature: purposes without clock atoms share the
// signature; a clock atom widens the maxima and changes it.
func TestExtrapolationSignature(t *testing.T) {
	sys := models.SmartLight()
	env := models.SmartLightEnv(sys)
	a := ExtrapolationSignature(sys, tctl.MustParse(env, "control: A<> IUT.Bright"))
	b := ExtrapolationSignature(sys, tctl.MustParse(env, "control: A<> IUT.Dim"))
	c := ExtrapolationSignature(sys, tctl.MustParse(env, "control: A<> IUT.Bright and x > 100"))
	if a == "" || a != b {
		t.Fatalf("location-only purposes must share the signature: %q vs %q", a, b)
	}
	if a == c {
		t.Fatalf("a wider clock atom must change the signature: %q", c)
	}
}

// TestBatchRejectsSafety pins the reachability-only contract.
func TestBatchRejectsSafety(t *testing.T) {
	sys := models.SmartLight()
	env := models.SmartLightEnv(sys)
	b, err := NewBatch(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Solve(tctl.MustParse(env, "control: A[] not IUT.Bright"), false); err == nil {
		t.Fatal("batch must reject safety purposes")
	}
}

// TestPlayCoverSmartLight checks the strategy footprint on the running
// example: the strict Bright strategy must traverse the forcing chain
// Off -touch-> L1 -dim-> Dim -touch-> L3 -bright-> Bright and never
// claim locations beyond its winning plays.
func TestPlayCoverSmartLight(t *testing.T) {
	sys := models.SmartLight()
	env := models.SmartLightEnv(sys)
	res, err := Solve(sys, tctl.MustParse(env, models.SmartLightGoal), Options{Algorithm: Backward, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Winnable {
		t.Fatal("running example must be winnable")
	}
	cov := res.Strategy.PlayCover()

	iut, _ := sys.ProcByName("IUT")
	mustHave := []string{"Off", "L1", "Dim", "L3", "Bright"}
	for _, name := range mustHave {
		li, ok := sys.Procs[iut].LocByName(name)
		if !ok {
			t.Fatalf("no location %s", name)
		}
		if !cov.HasLoc(iut, li) {
			t.Errorf("cover must include IUT.%s", name)
		}
	}

	// The L3 -bright-> Bright edge is the forced resolution the strategy
	// relies on; it must be in the edge footprint.
	var l3bright, l6off int
	l3bright, l6off = -1, -1
	for ei := range sys.Procs[iut].Edges {
		e := &sys.Procs[iut].Edges[ei]
		src := sys.Procs[iut].Locations[e.Src].Name
		if src == "L3" {
			l3bright = e.ID
		}
		if src == "L6" && sys.Procs[iut].Locations[e.Dst].Name == "Off" {
			l6off = e.ID
		}
	}
	if l3bright < 0 || l6off < 0 {
		t.Fatal("edge lookup failed")
	}
	if !cov.HasEdge(l3bright) {
		t.Error("cover must include the forced L3->Bright edge")
	}

	// Merging a second strategy's cover widens the footprint.
	other, err := Solve(sys, tctl.MustParse(env, "control: A<> IUT.Off and User.Work"), Options{Algorithm: Backward, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !other.Winnable {
		t.Fatal("off purpose must be winnable")
	}
	merged := NewCover()
	merged.Merge(cov)
	merged.Merge(other.Strategy.PlayCover())
	if merged.NumEdges() < cov.NumEdges() {
		t.Error("merge must not shrink the footprint")
	}
}

// TestPlayCoverCooperativeWiderThanStrict: the cooperative strategy may
// hope for plant outputs the strict one cannot rely on, so its footprint
// is a superset on the running example's Bright purpose.
func TestPlayCoverCooperativeWiderThanStrict(t *testing.T) {
	sys := models.SmartLight()
	env := models.SmartLightEnv(sys)
	f := tctl.MustParse(env, models.SmartLightGoal)
	strict, err := Solve(sys, f, Options{Algorithm: Backward, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	coop, err := Solve(sys, f, Options{Algorithm: Backward, Workers: 1, TreatAllControllable: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := strict.Strategy.PlayCover()
	cc := coop.Strategy.PlayCover()
	if cc.NumEdges() < sc.NumEdges() {
		t.Fatalf("cooperative footprint (%d edges) must not be narrower than strict (%d)", cc.NumEdges(), sc.NumEdges())
	}
}
