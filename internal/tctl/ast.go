// Package tctl implements the annotated TCTL subset the paper uses for test
// purposes: `control: A<> φ` (the tester can force φ) and `control: A[] φ`
// (the tester can maintain φ), where φ is a boolean state predicate over
// process locations, bounded integer variables and clock constraints,
// including UPPAAL-style bounded quantifiers such as
//
//	control: A<> forall (i : BufferId) (inUse[i] == 1) and IUT.idle
//
// Key types: Formula (Objective + Prop, rendered canonically by String —
// the spelling strategy caches key on) with Goal deciding the predicate
// over a zone as a three-valued Verdict, GoalFed restricting a zone to the
// satisfying valuations and ClockConstraints feeding extrapolation;
// Parse/MustParse build formulas against a ParseEnv of model symbols.
// Formulas are immutable after parsing and safe for concurrent use.
package tctl

import (
	"fmt"
	"sync"

	"tigatest/internal/dbm"
	"tigatest/internal/expr"
	"tigatest/internal/model"
)

// Objective is the control objective kind.
type Objective int

const (
	// Reach is `control: A<> φ`: force the play into a φ-state.
	Reach Objective = iota
	// Safety is `control: A[] φ`: keep the play inside φ-states forever.
	Safety
)

func (o Objective) String() string {
	if o == Reach {
		return "A<>"
	}
	return "A[]"
}

// Formula is a parsed test purpose.
type Formula struct {
	Objective Objective
	Prop      Prop
	Source    string // original text, if parsed
}

func (f *Formula) String() string {
	if f.Source != "" {
		return f.Source
	}
	return fmt.Sprintf("control: %s %s", f.Objective, f.Prop)
}

// Verdict is the three-valued outcome of a predicate over one symbolic
// state: it holds nowhere in the zone, everywhere in it, or on the
// sub-federation its clock atoms cut out. Location and data atoms are
// decided by the discrete state alone, so a clock-free predicate is always
// None or All and never touches a DBM.
type Verdict uint8

const (
	None  Verdict = iota // no valuation of the zone satisfies the predicate
	All                  // every valuation of the zone satisfies it
	Mixed                // exactly the valuations of the accompanying federation do
)

func (v Verdict) String() string {
	switch v {
	case None:
		return "none"
	case All:
		return "all"
	}
	return "mixed"
}

// Prop is a state predicate over a discrete state and a zone.
type Prop interface {
	fmt.Stringer
	// eval decides the predicate at the discrete state for the valuations
	// of zone z. The federation is non-nil exactly for Mixed, non-empty,
	// freshly built and owned by the caller.
	eval(ev *evalCtx, z *dbm.DBM) (Verdict, *dbm.Federation, error)
}

// evalCtx is one evaluation's state. Contexts are pooled, so the
// quantifier binding stack keeps its backing array across evaluations.
type evalCtx struct {
	locs []int
	ectx expr.Ctx
}

var evalPool = sync.Pool{New: func() any { return new(evalCtx) }}

// mixed wraps a freshly built federation as a verdict, folding the empty
// set into None.
func mixed(f *dbm.Federation) (Verdict, *dbm.Federation, error) {
	if f.IsEmpty() {
		f.Release()
		return None, nil, nil
	}
	return Mixed, f, nil
}

func truth(ok bool) Verdict {
	if ok {
		return All
	}
	return None
}

// PLoc asserts that a process is in a location.
type PLoc struct {
	Proc, Loc int
	name      string
}

func (p *PLoc) String() string { return p.name }

func (p *PLoc) eval(ev *evalCtx, _ *dbm.DBM) (Verdict, *dbm.Federation, error) {
	return truth(ev.locs[p.Proc] == p.Loc), nil, nil
}

// PData wraps a boolean data expression (which may reference quantifier
// bindings).
type PData struct{ E expr.Expr }

func (p *PData) String() string { return p.E.String() }

func (p *PData) eval(ev *evalCtx, _ *dbm.DBM) (Verdict, *dbm.Federation, error) {
	ok, err := expr.Truth(&ev.ectx, p.E)
	return truth(ok), nil, err
}

// PClock is a clock constraint atom.
type PClock struct {
	C model.ClockConstraint
}

func (p *PClock) String() string { return fmt.Sprintf("clock[%d,%d]%v", p.C.I, p.C.J, p.C.Bound) }

// eval reads the verdict off the canonical zone before building anything:
// the atom holds everywhere when its bound is no tighter than the zone's,
// and nowhere when it contradicts the opposite bound.
func (p *PClock) eval(_ *evalCtx, z *dbm.DBM) (Verdict, *dbm.Federation, error) {
	c := p.C
	switch {
	case c.Bound == dbm.Infinity || c.Bound >= z.At(c.I, c.J):
		return All, nil, nil
	case dbm.Add(z.At(c.J, c.I), c.Bound) < dbm.LEZero:
		return None, nil, nil
	}
	return mixed(dbm.FedFromDBM(z.Dim(), z.Constrain(c.I, c.J, c.Bound)))
}

// PAnd is conjunction.
type PAnd struct{ L, R Prop }

func (p *PAnd) String() string { return fmt.Sprintf("(%s and %s)", p.L, p.R) }

func (p *PAnd) eval(ev *evalCtx, z *dbm.DBM) (Verdict, *dbm.Federation, error) {
	lv, lf, err := p.L.eval(ev, z)
	if err != nil || lv == None {
		return None, nil, err
	}
	rv, rf, err := p.R.eval(ev, z)
	switch {
	case err != nil || rv == None:
		lf.Release()
		return None, nil, err
	case lv == All:
		return rv, rf, nil
	case rv == All:
		return lv, lf, nil
	}
	out := lf.Intersect(rf)
	lf.Release()
	rf.Release()
	return mixed(out)
}

// POr is disjunction.
type POr struct{ L, R Prop }

func (p *POr) String() string { return fmt.Sprintf("(%s or %s)", p.L, p.R) }

func (p *POr) eval(ev *evalCtx, z *dbm.DBM) (Verdict, *dbm.Federation, error) {
	lv, lf, err := p.L.eval(ev, z)
	if err != nil {
		return None, nil, err
	}
	if lv == All {
		return All, nil, nil
	}
	rv, rf, err := p.R.eval(ev, z)
	switch {
	case err != nil:
		lf.Release()
		return None, nil, err
	case rv == All:
		lf.Release()
		return All, nil, nil
	case lv == None:
		return rv, rf, nil
	case rv == None:
		return lv, lf, nil
	}
	lf.Union(rf) // rf's zones transfer into lf
	rf.Recycle()
	return Mixed, lf, nil
}

// PNot is negation (complement within the zone).
type PNot struct{ E Prop }

func (p *PNot) String() string { return fmt.Sprintf("not %s", p.E) }

func (p *PNot) eval(ev *evalCtx, z *dbm.DBM) (Verdict, *dbm.Federation, error) {
	v, f, err := p.E.eval(ev, z)
	switch {
	case err != nil:
		return None, nil, err
	case v == None:
		return All, nil, nil
	case v == All:
		return None, nil, nil
	}
	out := dbm.FedFromDBM(z.Dim(), z.Clone())
	out.SubtractInPlace(f)
	f.Release()
	return mixed(out)
}

// PQuant is a bounded quantifier over an integer range; the body may mix
// data, clock and location atoms.
type PQuant struct {
	ForAll bool
	Name   string
	Lo, Hi int
	Body   Prop
}

func (p *PQuant) String() string {
	kw := "exists"
	if p.ForAll {
		kw = "forall"
	}
	return fmt.Sprintf("%s (%s:%d..%d) %s", kw, p.Name, p.Lo, p.Hi, p.Body)
}

// eval folds the body's verdicts over the range: forall as a conjunction
// starting from All, exists as a disjunction starting from None, each
// stopping as soon as the absorbing verdict (None, resp. All) appears.
func (p *PQuant) eval(ev *evalCtx, z *dbm.DBM) (Verdict, *dbm.Federation, error) {
	ctx := &ev.ectx
	k := len(ctx.Bind)
	ctx.Bind = append(ctx.Bind, expr.Binding{Name: p.Name})
	defer func() { ctx.Bind = ctx.Bind[:k] }()
	absorb, acc := All, None // exists
	if p.ForAll {
		absorb, acc = None, All
	}
	var accFed *dbm.Federation
	for i := p.Lo; i <= p.Hi && acc != absorb; i++ {
		ctx.Bind[k].Val = i
		v, f, err := p.Body.eval(ev, z)
		switch {
		case err != nil:
			accFed.Release()
			return None, nil, err
		case v == absorb:
			accFed.Release()
			acc, accFed = absorb, nil
		case v == Mixed && acc != Mixed:
			acc, accFed = Mixed, f
		case v == Mixed && p.ForAll:
			next := accFed.Intersect(f)
			accFed.Release()
			f.Release()
			acc, accFed, _ = mixed(next) // an empty meet is None, the absorbing verdict
		case v == Mixed:
			accFed.Union(f) // f's zones transfer into accFed
			f.Recycle()
		}
	}
	return acc, accFed, nil
}

// Goal decides the formula's predicate at the discrete state (locs, vars)
// for the valuations of zone z. The federation is non-nil exactly for a
// Mixed verdict and is freshly owned by the caller; None and All allocate
// no federation at all.
func (f *Formula) Goal(sys *model.System, locs []int, vars []int32, z *dbm.DBM) (Verdict, *dbm.Federation, error) {
	ev := evalPool.Get().(*evalCtx)
	ev.locs, ev.ectx = locs, expr.Ctx{Tbl: sys.Vars, Env: vars, Bind: ev.ectx.Bind[:0]}
	v, fed, err := f.Prop.eval(ev, z)
	ev.locs, ev.ectx = nil, expr.Ctx{Bind: ev.ectx.Bind[:0]} // pin no caller state in the pool
	evalPool.Put(ev)
	return v, fed, err
}

// GoalFed computes the satisfying sub-federation of zone z at the discrete
// state (locs, vars). The result is freshly owned by the caller.
func (f *Formula) GoalFed(sys *model.System, locs []int, vars []int32, z *dbm.DBM) (*dbm.Federation, error) {
	v, fed, err := f.Goal(sys, locs, vars, z)
	switch {
	case err != nil:
		return nil, err
	case v == None:
		return dbm.NewFederation(z.Dim()), nil
	case v == All:
		return dbm.FedFromDBM(z.Dim(), z.Clone()), nil
	}
	return fed, nil
}

// HoldsAtPoint evaluates the predicate at one concrete scaled valuation.
// Evaluating over the universal zone is exact for point membership: every
// federation operation preserves per-point semantics.
func (f *Formula) HoldsAtPoint(sys *model.System, locs []int, vars []int32, val []int64, scale int64) (bool, error) {
	fed, err := f.GoalFed(sys, locs, vars, dbm.New(sys.NumClocks()))
	if err != nil {
		return false, err
	}
	return fed.ContainsPoint(val, scale), nil
}

// ClockConstraints lists all clock atoms in the formula (used to compute
// extrapolation constants).
func (f *Formula) ClockConstraints() []model.ClockConstraint {
	var out []model.ClockConstraint
	var walk func(Prop)
	walk = func(p Prop) {
		switch q := p.(type) {
		case *PClock:
			out = append(out, q.C)
		case *PAnd:
			walk(q.L)
			walk(q.R)
		case *POr:
			walk(q.L)
			walk(q.R)
		case *PNot:
			walk(q.E)
		case *PQuant:
			walk(q.Body)
		}
	}
	walk(f.Prop)
	return out
}
