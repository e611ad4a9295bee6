package campaign

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/texec"
	"tigatest/internal/tioco"
	"tigatest/internal/tiots"
)

const execGoldenFile = "exec_golden.txt"

// TestExecGoldenDigests pins Algorithm 3.1 execution run by run: for the
// Smart Light, Train-Gate and LEP n=3 campaigns (edge and location
// coverage, 12 sampled mutants under seeds 1-3) it executes every
// (suite entry × IUT row) pair once and compares a digest of the run —
// verdict, reason, step count, the formatted observable trace and the
// tioco monitor's rendered trace, hypothesis count and allowed outputs
// after replaying that trace — with testdata/exec_golden.txt.
//
// The monitor replay feeds exactly the events Run accepted (a failing
// final observation is not part of Result.Trace; its monitor trace is
// embedded in the Fail reason instead).
//
// To re-record, delete the golden file and run this test: it writes the
// file and fails once, asking for the result to be reviewed and
// committed.
func TestExecGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every campaign cell of three models")
	}
	got := execGoldenListing(t)
	path := filepath.Join("testdata", execGoldenFile)
	want, err := readExecGolden(path)
	if errors.Is(err, fs.ErrNotExist) {
		var b strings.Builder
		for _, l := range got {
			b.WriteString(l.String())
			b.WriteByte('\n')
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d run digests in %s; review and commit it, then rerun", len(got), path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, golden file has %d", len(got), len(want))
	}
	byKey := map[string]execGoldenLine{}
	for _, l := range want {
		byKey[l.Key] = l
	}
	for _, l := range got {
		w, ok := byKey[l.Key]
		switch {
		case !ok:
			t.Errorf("run %s is not in the golden file", l.Key)
		case w != l:
			t.Errorf("run %s:\n got  %s\n want %s", l.Key, l, w)
		}
	}
}

// execGoldenLine is one recorded run: its key (model, coverage, entry,
// row), verdict and step count in clear for diagnostics, and the digest.
type execGoldenLine struct {
	Key     string
	Verdict string
	Steps   int
	Digest  string
}

func (l execGoldenLine) String() string {
	return fmt.Sprintf("%s\t%s\t%d\t%s", l.Key, l.Verdict, l.Steps, l.Digest)
}

func readExecGolden(path string) ([]execGoldenLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []execGoldenLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		parts := strings.Split(sc.Text(), "\t")
		if len(parts) != 4 {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		steps, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, execGoldenLine{Key: parts[0], Verdict: parts[1], Steps: steps, Digest: parts[3]})
	}
	return out, sc.Err()
}

// execGoldenListing digests every golden run.
func execGoldenListing(t *testing.T) []execGoldenLine {
	t.Helper()
	var out []execGoldenLine
	forEachGoldenRun(t, func(g goldenRun) {
		out = append(out, execGoldenLine{
			Key:     g.key,
			Verdict: g.res.Verdict.String(),
			Steps:   g.res.Steps,
			Digest:  execDigest(t, g.sys, g.runner.Exec.PlantProcs, tiots.Scale, g.res),
		})
	})
	return out
}

// goldenRun is one run of the golden listing: a suite entry's runner
// against one IUT row, and its result.
type goldenRun struct {
	key    string
	sys    *model.System
	runner *Runner
	row    *IUTRow
	res    texec.Result
}

// forEachGoldenRun plans each campaign once per coverage kind (planning
// does not depend on the seed) and runs every entry against the union of
// the IUT rows the three seeds sample, deduplicated by row name.
func forEachGoldenRun(t *testing.T, visit func(goldenRun)) {
	t.Helper()
	for _, mc := range []struct {
		name string
		n    int
	}{{"smartlight", 0}, {"traingate", 0}, {"lep", 3}} {
		sys, env, plant, _, err := models.ByName(mc.name, mc.n)
		if err != nil {
			t.Fatal(err)
		}
		for _, cov := range []Coverage{CoverEdges, CoverLocations} {
			base := (&Options{
				Coverage: cov,
				Plant:    plant,
				Mutants:  12,
				Solver:   game.Options{Workers: 1},
			}).withDefaults(sys)
			suite, err := Plan(sys, env, &base)
			if err != nil {
				t.Fatalf("%s/%s: %v", mc.name, cov, err)
			}
			var rows []*IUTRow
			seen := map[string]bool{}
			for seed := int64(1); seed <= 3; seed++ {
				opts := base
				opts.Seed = seed
				rs, err := BuildIUTs(sys, &opts, suite.HasLazy())
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					if !seen[r.Name] {
						seen[r.Name] = true
						rows = append(rows, r)
					}
				}
			}
			for _, e := range suite.Entries {
				runner := &Runner{Strategy: e.consult, Exec: base.Exec}
				for _, r := range rows {
					visit(goldenRun{
						key:    fmt.Sprintf("%s/%s/entry%d/%s", mc.name, cov, e.Index, r.Name),
						sys:    sys,
						runner: runner,
						row:    r,
						res:    runRow(t, runner, r, nil),
					})
				}
			}
		}
	}
}

// runRow runs the runner once against a fresh instance of the row's IUT,
// passed through wrap when it is non-nil.
func runRow(t *testing.T, runner *Runner, r *IUTRow, wrap func(tiots.IUT) tiots.IUT) texec.Result {
	t.Helper()
	iut, closer, err := r.Factory(0)
	if err != nil {
		t.Fatal(err)
	}
	if closer != nil {
		defer closer()
	}
	if wrap != nil {
		iut = wrap(iut)
	}
	return runner.RunOnce(iut)
}

// keylessIUT exposes only tiots.IUT, as the remote adapter.Client does, so
// texec.Run cannot key the state and plays to the step budget.
type keylessIUT struct{ tiots.IUT }

// TestClosedLoopMatchesBudgetRun checks closed-loop detection against the
// step budget: every golden run that ends "closed loop repeats" is rerun
// with the IUT's state key hidden. The rerun must exhaust the 10 000-step
// budget with the same verdict, and the looped run's trace must be a
// prefix of the rerun's.
func TestClosedLoopMatchesBudgetRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every campaign cell of three models")
	}
	looped := 0
	forEachGoldenRun(t, func(g goldenRun) {
		if !strings.HasPrefix(g.res.Reason, "closed loop repeats") {
			return
		}
		looped++
		full := runRow(t, g.runner, g.row, func(iut tiots.IUT) tiots.IUT { return keylessIUT{iut} })
		switch {
		case full.Reason != "step budget exhausted" || full.Steps != 10000:
			t.Errorf("%s: looped run %s, budget rerun %s", g.key, g.res, full)
		case full.Verdict != g.res.Verdict:
			t.Errorf("%s: verdict %s, budget rerun %s", g.key, g.res.Verdict, full.Verdict)
		case len(g.res.Trace) > len(full.Trace) || !slices.Equal(g.res.Trace, full.Trace[:len(g.res.Trace)]):
			t.Errorf("%s: looped trace is not a prefix of the budget run's", g.key)
		}
	})
	if looped == 0 {
		t.Fatal("no golden run ends in a repeating closed loop")
	}
	t.Logf("%d looped runs match their budget runs", looped)
}

// execDigest hashes everything observable about one run.
func execDigest(t *testing.T, sys *model.System, plant []int, scale int64, res texec.Result) string {
	t.Helper()
	mon, err := tioco.NewMonitor(sys, plant, scale)
	if err != nil {
		t.Fatal(err)
	}
	var replay []string
	for _, ev := range res.Trace {
		switch {
		case ev.IsDelay():
			err = mon.Delay(ev.Delay)
		case ev.Kind == model.Controllable:
			err = mon.Input(ev.Chan)
		default:
			err = mon.Output(ev.Chan)
		}
		if err != nil {
			replay = append(replay, err.Error())
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "verdict=%s\nreason=%s\nsteps=%d\ntrace=%s\nmonitor=%s\nhypotheses=%d\nallowed=%s\nreplay=%s\n",
		res.Verdict, res.Reason, res.Steps, res.Trace.Format(sys, scale),
		mon.Trace(), mon.StateCount(), mon.AllowedOutputs(), strings.Join(replay, ";"))
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
