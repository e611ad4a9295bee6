package tctl

import (
	"fmt"
	"strings"

	"tigatest/internal/expr"
	"tigatest/internal/model"
)

// Range is a named integer range usable in quantifiers (UPPAAL scalar-set
// style, e.g. "BufferId" in the paper's TP2/TP3).
type Range struct{ Lo, Hi int }

// ParseEnv supplies the symbols the parser resolves against.
type ParseEnv struct {
	Sys    *model.System
	Ranges map[string]Range // named quantifier ranges
}

// Parse parses a test purpose of the forms
//
//	control: A<> φ
//	control: A[] φ
//
// where φ admits `and/&&`, `or/||`, `not/!`, parentheses, location
// predicates `Proc.Loc`, data comparisons, clock comparisons and
// `forall/exists (i : Range) φ`. Arithmetic, comparisons and clock atoms
// are the grammar model files use (expr.Parser).
func Parse(env *ParseEnv, input string) (*Formula, error) {
	toks := expr.Lex(input)
	kept := toks[:0]
	for _, t := range toks {
		if t.Kind != expr.TokNewline {
			kept = append(kept, t)
		}
	}
	p := &parser{Parser: expr.Parser{Toks: kept}, env: env}
	p.Resolve = p.resolve
	f, err := p.parseFormula()
	if err != nil {
		return nil, fmt.Errorf("tctl: %w at position %d", err, p.Cur().Pos)
	}
	f.Source = strings.TrimSpace(input)
	return f, nil
}

// MustParse panics on error; for static test purposes in examples.
func MustParse(env *ParseEnv, input string) *Formula {
	f, err := Parse(env, input)
	if err != nil {
		panic(err)
	}
	return f
}

// parser adds propositions, location atoms and quantifiers to the shared
// expression grammar.
type parser struct {
	expr.Parser
	env    *ParseEnv
	scopes []string // quantifier-bound names currently in scope
}

// resolve finds a declared variable first, then a quantifier-bound name.
func (p *parser) resolve(name string, idx expr.Expr) (expr.Expr, error) {
	if _, ok := p.env.Sys.Vars.Lookup(name); ok {
		return expr.NewVar(p.env.Sys.Vars, name, idx)
	}
	if idx == nil {
		for _, s := range p.scopes {
			if s == name {
				return expr.Bound(name), nil
			}
		}
	}
	return nil, fmt.Errorf("unknown variable %q", name)
}

func (p *parser) parseFormula() (*Formula, error) {
	for _, kw := range []string{"control", ":", "A"} {
		if err := p.Expect(kw); err != nil {
			return nil, err
		}
	}
	var obj Objective
	switch {
	case p.Accept("<>"):
		obj = Reach
	case p.Accept("[]"):
		obj = Safety
	default:
		return nil, fmt.Errorf("expected <> or [] after A, got %s", p.Cur())
	}
	prop, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.Cur().Kind != expr.TokEOF {
		return nil, fmt.Errorf("trailing input %s", p.Cur())
	}
	return &Formula{Objective: obj, Prop: prop}, nil
}

func (p *parser) parseOr() (Prop, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.Accept("or") || p.Accept("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &POr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Prop, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.Accept("and") || p.Accept("&&") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &PAnd{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Prop, error) {
	if p.Accept("not") || p.Accept("!") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &PNot{E: e}, nil
	}
	if p.Cur().Text == "forall" || p.Cur().Text == "exists" {
		return p.parseQuant()
	}
	return p.parseAtom()
}

func (p *parser) parseQuant() (Prop, error) {
	forall := p.Next().Text == "forall"
	if err := p.Expect("("); err != nil {
		return nil, err
	}
	name, err := p.Name()
	if err != nil {
		return nil, err
	}
	if strings.Contains(name, ".") {
		return nil, fmt.Errorf("quantifier variable %q must not be dotted", name)
	}
	if err := p.Expect(":"); err != nil {
		return nil, err
	}
	var lo, hi int
	if p.Cur().Kind == expr.TokIdent {
		r, ok := p.env.Ranges[p.Cur().Text]
		if !ok {
			return nil, fmt.Errorf("unknown range %q", p.Cur().Text)
		}
		p.Pos++
		lo, hi = r.Lo, r.Hi
	} else if lo, hi, err = p.Span(); err != nil {
		return nil, err
	}
	if err := p.Expect(")"); err != nil {
		return nil, err
	}
	p.scopes = append(p.scopes, name)
	body, err := p.parseUnary()
	p.scopes = p.scopes[:len(p.scopes)-1]
	if err != nil {
		return nil, err
	}
	return &PQuant{ForAll: forall, Name: name, Lo: lo, Hi: hi, Body: body}, nil
}

// parseAtom handles parenthesized propositions, location predicates, clock
// atoms and data comparisons.
func (p *parser) parseAtom() (Prop, error) {
	// A parenthesis opens a proposition unless an operator follows its
	// close: then it was an arithmetic operand, as in (a + 1) == 2.
	if start := p.Pos; p.Accept("(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.Expect(")"); err != nil {
			return nil, err
		}
		if !expr.IsOperator(p.Cur()) {
			return e, nil
		}
		p.Pos = start
	}
	if prop, ok := p.location(); ok {
		return prop, nil
	}
	a, ok, err := p.ClockAtom(p.env.Sys.ClockByName)
	switch {
	case err != nil:
		return nil, err
	case ok:
		return clockProp(a.I, a.J, a.Op, a.K)
	}
	e, err := p.Comparison()
	if err != nil {
		return nil, err
	}
	return &PData{E: e}, nil
}

// location parses `Proc.Loc` when the current token names a location and
// is not an operand (a dotted variable may share the name).
func (p *parser) location() (Prop, bool) {
	t := p.Cur()
	if t.Kind != expr.TokIdent {
		return nil, false
	}
	procName, locName, dotted := strings.Cut(t.Text, ".")
	if !dotted {
		return nil, false
	}
	pi, ok := p.env.Sys.ProcByName(procName)
	if !ok {
		return nil, false
	}
	li, ok := p.env.Sys.Procs[pi].LocByName(locName)
	if !ok {
		return nil, false
	}
	if expr.IsOperator(p.Toks[p.Pos+1]) {
		return nil, false
	}
	p.Pos++
	return &PLoc{Proc: pi, Loc: li, name: t.Text}, true
}

// clockProp builds the atom xi - xj op k (j may be 0) from the clock
// normal form; != becomes the disjunction of the two strict bounds.
func clockProp(i, j int, op expr.Op, k int) (Prop, error) {
	if op == expr.OpNe {
		// < and > always have a normal form.
		l, _ := clockProp(i, j, expr.OpLt, k)
		r, _ := clockProp(i, j, expr.OpGt, k)
		return &POr{L: l, R: r}, nil
	}
	cs, err := model.CompareClocks(i, j, op, k)
	if err != nil {
		return nil, err
	}
	var prop Prop = &PClock{C: cs[0]}
	for _, c := range cs[1:] {
		prop = &PAnd{L: prop, R: &PClock{C: c}}
	}
	return prop, nil
}
