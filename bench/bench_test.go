package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, in the format the file's
// readers expect: exactly six keys, bounded names and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}

	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, got, w.name, w.why)
		}
	}

	seen := map[string]bool{}
	check := func(kind string, got []entry, want []metric, cap int, bounded bool) {
		if len(got) > cap {
			t.Errorf("%d %s metrics, at most %d allowed", len(got), kind, cap)
		}
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics listed, the program reports %d", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d = %+v, want %+v", kind, i, g, m)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s metric name %q is malformed or repeated", kind, g.Name)
			}
			seen[g.Name] = true
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("unit %q of %s is malformed", g.Unit, g.Name)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s needs a bound in (0, 0.25]", g.Name)
			case !bounded && g.Bound != nil:
				t.Errorf("per-layer metric %s has a bound", g.Name)
			}
		}
	}
	check("end-to-end", bf.EndToEnd, endToEnd, 16, true)
	check("per-layer", bf.PerLayer, perLayer, 128, false)
	for _, w := range bf.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Bound != nil {
			for _, o := range bf.EndToEnd {
				if o.Bound != nil && *o.Bound > *m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %.2f > %.2f", o.Name, *o.Bound, *m.Bound)
				}
			}
		}
	}
}

// TestQuickRuns runs every workload briefly, untraced and traced, and
// checks that each emits exactly its metrics with no failed op.
func TestQuickRuns(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := &config{seed: 1, seconds: 0.2, trace: trace, quick: true, setups: 1}
			o, _, err := runWorkload(w, cfg, testLog{t})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !o.Correct || o.errorRate() != 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d ops failed", w.name, trace, o.Correct, o.Failed, o.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(o.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := o.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s missing or in the wrong unit", w.name, trace, m.name)
				}
			}
			if _, err := json.Marshal(o); err != nil {
				t.Errorf("%s trace=%v: result line: %v", w.name, trace, err)
			}
		}
	}
}

// TestWrongKillCountFails checks that a campaign killing a different
// number of mutants than recorded counts as a failed op, not a pass.
func TestWrongKillCountFails(t *testing.T) {
	bad := *lepCampaign
	bad.killed = append([]int(nil), lepCampaign.killed...)
	// The warm-up runs the first family member; every other member now
	// expects one kill too many.
	for i := 1; i < len(bad.killed); i++ {
		bad.killed[i]++
	}
	w := campaignWorkload("campaign-lep-wrong", "", 90, &bad)
	o, _, err := runWorkload(w, &config{seed: 1, seconds: 1, quick: true, setups: 1}, testLog{t})
	if err != nil {
		t.Fatal(err)
	}
	if o.Correct || o.errorRate() == 0 {
		t.Errorf("wrong kill counts passed: correct=%v, %d of %d ops failed", o.Correct, o.Failed, o.Attempted)
	}
}

// testLog routes a run's diagnostics to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(bytes.TrimRight(p, "\n")))
	return len(p), nil
}
