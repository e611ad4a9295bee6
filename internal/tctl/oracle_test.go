package tctl_test

import (
	"strings"
	"testing"

	"tigatest/internal/dbm"
	"tigatest/internal/expr"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/symbolic"
	"tigatest/internal/tctl"
)

// oracle decides p at one concrete state: locations, variables and clock
// values val (scaled by scale, reference clock excluded). It shares no code
// with the zone evaluator: clock atoms compare two concrete clock values
// against the atom's bound, and boolean structure is plain Go logic.
func oracle(p tctl.Prop, locs []int, ctx *expr.Ctx, val []int64, scale int64) (bool, error) {
	switch q := p.(type) {
	case *tctl.PLoc:
		return locs[q.Proc] == q.Loc, nil
	case *tctl.PData:
		return expr.Truth(ctx, q.E)
	case *tctl.PClock:
		return clockHolds(q.C, val, scale), nil
	case *tctl.PAnd:
		l, err := oracle(q.L, locs, ctx, val, scale)
		if err != nil {
			return false, err
		}
		r, err := oracle(q.R, locs, ctx, val, scale)
		return l && r, err
	case *tctl.POr:
		l, err := oracle(q.L, locs, ctx, val, scale)
		if err != nil {
			return false, err
		}
		r, err := oracle(q.R, locs, ctx, val, scale)
		return l || r, err
	case *tctl.PNot:
		v, err := oracle(q.E, locs, ctx, val, scale)
		return !v, err
	case *tctl.PQuant:
		k := len(ctx.Bind)
		defer func() { ctx.Bind = ctx.Bind[:k] }()
		for i := q.Lo; i <= q.Hi; i++ {
			ctx.Bind = append(ctx.Bind[:k], expr.Binding{Name: q.Name, Val: i})
			v, err := oracle(q.Body, locs, ctx, val, scale)
			if err != nil {
				return false, err
			}
			if v != q.ForAll {
				return v, nil
			}
		}
		return q.ForAll, nil
	}
	panic("oracle: unknown proposition type")
}

// clockHolds checks x_I - x_J against the bound of c at a scaled point.
func clockHolds(c model.ClockConstraint, val []int64, scale int64) bool {
	if c.Bound.IsInf() {
		return true
	}
	at := func(i int) int64 {
		if i == 0 {
			return 0
		}
		return val[i-1]
	}
	diff, lim := at(c.I)-at(c.J), int64(c.Bound.Value())*scale
	if c.Bound.Weak() {
		return diff <= lim
	}
	return diff < lim
}

// samplePoints returns points of zone z at half-integer resolution (scale
// 2): per clock its lower and upper bounds, the half-integers just inside
// them, the midpoint and every formula constant with its two half-integer
// neighbours, combined over all clocks and kept where z contains them.
// Unbounded clocks are cut at lower bound plus span.
func samplePoints(z *dbm.DBM, consts []int, span int64) [][]int64 {
	const scale = 2
	dim := z.Dim()
	axes := make([][]int64, dim-1)
	for i := 1; i < dim; i++ {
		lo := -int64(z.At(0, i).Value()) * scale
		hi := lo + span*scale
		if b := z.At(i, 0); !b.IsInf() {
			hi = int64(b.Value()) * scale
		}
		seen := map[int64]bool{}
		add := func(v int64) {
			if v >= lo && v <= hi && !seen[v] {
				seen[v] = true
				axes[i-1] = append(axes[i-1], v)
			}
		}
		for _, v := range []int64{lo, lo + 1, lo + 2, (lo + hi) / 2, hi - 2, hi - 1, hi} {
			add(v)
		}
		for _, c := range consts {
			for d := int64(-1); d <= 1; d++ {
				add(int64(c)*scale + d)
			}
		}
	}
	var out [][]int64
	pt := make([]int64, dim-1)
	var rec func(i int)
	rec = func(i int) {
		if i == len(axes) {
			if z.ContainsPoint(pt, scale) {
				out = append(out, append([]int64(nil), pt...))
			}
			return
		}
		for _, v := range axes[i] {
			pt[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// explore returns the symbolic states reachable from the initial one in
// breadth-first order, at most limit of them, extrapolated against the
// clock atoms of all the formulas.
func explore(t testing.TB, sys *model.System, fs []*tctl.Formula, limit int) []*symbolic.State {
	t.Helper()
	var extra []model.ClockConstraint
	for _, f := range fs {
		extra = append(extra, f.ClockConstraints()...)
	}
	ex := symbolic.NewExplorer(sys, extra)
	init, err := ex.Initial()
	if err != nil {
		t.Fatal(err)
	}
	states := []*symbolic.State{init}
	index := map[uint64][]*symbolic.State{init.HashKey(): {init}}
	var buf []symbolic.Succ
	for i := 0; i < len(states); i++ {
		// The kept successors must outlive the call: a fresh Scratch each.
		if buf, err = ex.AppendSuccessors(buf[:0], states[i], new(symbolic.Scratch)); err != nil {
			t.Fatal(err)
		}
	next:
		for _, sc := range buf {
			h := sc.State.HashKey()
			for _, o := range index[h] {
				if o.EqualTo(sc.State) {
					continue next
				}
			}
			if len(states) == limit {
				return states
			}
			index[h] = append(index[h], sc.State)
			states = append(states, sc.State)
		}
	}
	return states
}

// TestGoalMatchesOracle checks the three-valued evaluator against the
// concrete oracle on every reachable symbolic state of the built-in models,
// for the shipped purposes and hand-written formulas covering mixed clock
// and discrete atoms, negation, nesting, quantifier name shadowing and the
// safety objective. At every sampled zone point, the Goal verdict and the
// GoalFed federation must agree with the oracle.
func TestGoalMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		sys  *model.System
		env  *tctl.ParseEnv
		srcs []string
	}{
		{"lep3", models.LEP(models.LEPOptions{Nodes: 3}), nil, []string{
			models.LEPTP1, models.LEPTP2, models.LEPTP3,
			"control: A<> (IUT.idle and w <= 3) or (count >= 2 and not (e > 1))",
			"control: A[] not (forall (i : BufferId) (inUse[i] == 1 or w - e < 2))",
			"control: A<> forall (i : BufferId) (inUse[i] == 1 or exists (i : 0..1) (slotAddr[i] == 2 and e <= 1))",
			"control: A<> exists (i : BufferId) (inUse[i] == 1 and exists (i : 1..2) (inUse[i] == 0 and e <= 1))",
			"control: A<> exists (i : BufferId) (inUse[i] == 0 and (w > 1 or IUT.forward)) and not e >= 4",
		}},
		{"smartlight", models.SmartLight(), nil, []string{
			models.SmartLightGoal,
			"control: A<> (IUT.Dim and x - Tp >= 2) or (IUT.Off and z < 3)",
			"control: A[] not (IUT.Bright and x > 1)",
			"control: A<> exists (k : 0..2) (k == 1 and (x <= 4 or not IUT.Off))",
		}},
		{"traingate", models.TrainGate(), nil, []string{
			models.TrainGateGoal,
			"control: A<> (Train.Approaching and t >= 5) or (not Gate.Closed and g < 1)",
			"control: A[] Gate.Open or t - g <= 2",
		}},
	}
	cases[0].env = models.LEPEnv(cases[0].sys, 3)
	cases[1].env = models.SmartLightEnv(cases[1].sys)
	cases[2].env = models.TrainGateEnv(cases[2].sys)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fs []*tctl.Formula
			var consts []int
			for _, src := range tc.srcs {
				f, err := tctl.Parse(tc.env, src)
				if err != nil {
					t.Fatalf("parse %q: %v", src, err)
				}
				fs = append(fs, f)
				for _, c := range f.ClockConstraints() {
					consts = append(consts, c.Bound.Value())
				}
			}
			const limit = 50000
			states := explore(t, tc.sys, fs, limit)
			if len(states) == limit {
				t.Fatalf("more than %d states: the state space is larger than expected", limit)
			}
			mixed := make([]int, len(fs))
			for _, st := range states {
				points := samplePoints(st.Zone, consts, 8)
				for fi, f := range fs {
					v, fed, err := f.Goal(tc.sys, st.Locs, st.Vars, st.Zone)
					if err != nil {
						t.Fatalf("%s: %v", f, err)
					}
					if v == tctl.Mixed {
						mixed[fi]++
						if fed.IsEmpty() {
							t.Fatalf("%s: Mixed verdict with an empty federation", f)
						}
					} else if fed != nil {
						t.Fatalf("%s: %v verdict carries a federation", f, v)
					}
					gf, err := f.GoalFed(tc.sys, st.Locs, st.Vars, st.Zone)
					if err != nil {
						t.Fatal(err)
					}
					ctx := &expr.Ctx{Tbl: tc.sys.Vars, Env: st.Vars}
					for _, p := range points {
						want, err := oracle(f.Prop, st.Locs, ctx, p, 2)
						if err != nil {
							t.Fatal(err)
						}
						got := v == tctl.All || (v == tctl.Mixed && fed.ContainsPoint(p, 2))
						if got != want {
							t.Fatalf("%s at %v %v point %v/2: Goal says %v (%v), oracle %v",
								f, st.Locs, st.Vars, p, got, v, want)
						}
						if gf.ContainsPoint(p, 2) != want {
							t.Fatalf("%s at %v %v point %v/2: GoalFed disagrees with the oracle (%v)",
								f, st.Locs, st.Vars, p, want)
						}
					}
				}
			}
			for fi, f := range fs {
				if len(f.ClockConstraints()) == 0 && mixed[fi] > 0 {
					t.Errorf("%s: clock-free formula produced %d Mixed verdicts", f, mixed[fi])
				}
			}
			t.Logf("%d states, %d formulas, Mixed verdicts per formula %v", len(states), len(fs), mixed)
		})
	}
}

// TestGoalUnboundNameErrors checks that a data atom naming no quantifier
// in scope fails evaluation instead of reading a stale binding.
func TestGoalUnboundNameErrors(t *testing.T) {
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	f := &tctl.Formula{Objective: tctl.Reach, Prop: &tctl.PQuant{
		ForAll: true, Name: "i", Lo: 0, Hi: 2,
		Body: &tctl.PData{E: expr.NewBin(expr.OpEq, expr.Bound("j"), expr.Lit(0))},
	}}
	z := dbm.New(sys.NumClocks())
	_, _, err := f.Goal(sys, make([]int, len(sys.Procs)), sys.Vars.InitialEnv(), z)
	if err == nil || !strings.Contains(err.Error(), "unbound name j") {
		t.Fatalf("Goal: want an unbound-name error, got %v", err)
	}
	if _, err := f.GoalFed(sys, make([]int, len(sys.Procs)), sys.Vars.InitialEnv(), z); err == nil {
		t.Fatal("GoalFed: want an unbound-name error")
	}
}

// BenchmarkGoalFed measures one GoalFed call per op over the first states
// of the LEP n=5 zone graph: TP3 is decided on the discrete state alone,
// the clocked purpose takes the Mixed path wherever its atom cuts the zone.
func BenchmarkGoalFed(b *testing.B) {
	sys := models.LEP(models.LEPOptions{Nodes: 5})
	env := models.LEPEnv(sys, 5)
	purposes := []struct{ name, src string }{
		{"TP3", models.LEPTP3},
		{"clocked", "control: A<> exists (i : BufferId) (inUse[i] == 0) and IUT.idle and w <= 2"},
	}
	var fs []*tctl.Formula
	for _, p := range purposes {
		fs = append(fs, tctl.MustParse(env, p.src))
	}
	states := explore(b, sys, fs, 4096)
	for i, p := range purposes {
		f := fs[i]
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				st := states[n%len(states)]
				fed, err := f.GoalFed(sys, st.Locs, st.Vars, st.Zone)
				if err != nil {
					b.Fatal(err)
				}
				fed.Release()
			}
		})
	}
}
