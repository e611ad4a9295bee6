// Package dsl implements a small textual language for TIOGA networks so
// models can live in files next to the code that tests them:
//
//	system smartlight
//
//	clock x, Tp
//	int best = 3 range 0..3
//	int inUse[4] range 0..1
//	chan touch : input
//	chan dim, bright : output
//	range BufferId = 0..3
//
//	process IUT {
//	    init Off
//	    location Off
//	    location L1 { inv Tp<=2 }
//	    edge Off -> L1 on touch? when x<20 do { x:=0, Tp:=0 }
//	    edge L1 -> Dim on dim! do { x:=0 }
//	}
//
// Edges synchronize with `on name?` (receive) / `on name!` (emit) or are
// internal with `tau input` / `tau output`. Guards after `when` conjoin
// clock comparisons and data predicates with &&. The `do { ... }` block
// mixes clock resets (x := 0) and data assignments. Guards, invariants
// and updates are read by the expression grammar test purposes share
// (expr.Parser).
//
// The complete language reference, with the shipped example models walked
// through line by line, is docs/DSL.md. Parse/MustParse return a File
// (system plus named quantifier ranges); parsing is pure and the result
// immutable, so files may be parsed and shared concurrently.
package dsl

import (
	"fmt"

	"tigatest/internal/expr"
	"tigatest/internal/model"
	"tigatest/internal/tctl"
)

// File is a parsed model file: the system plus named quantifier ranges for
// test purposes.
type File struct {
	Sys    *model.System
	Ranges map[string]tctl.Range
}

// ParseEnv returns the tctl parse environment for formulas against this
// file.
func (f *File) ParseEnv() *tctl.ParseEnv {
	return &tctl.ParseEnv{Sys: f.Sys, Ranges: f.Ranges}
}

// Parse reads a model file.
func Parse(src string) (*File, error) {
	p := &parser{Parser: expr.Parser{Toks: expr.Lex(src)}}
	f, err := p.file()
	if err != nil {
		return nil, fmt.Errorf("dsl: line %d: %w", p.Cur().Line, err)
	}
	if err := f.Sys.Validate(); err != nil {
		return nil, fmt.Errorf("dsl: %w", err)
	}
	return f, nil
}

// MustParse panics on error (for embedded model literals in tests).
func MustParse(src string) *File {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

// parser adds the declarations to the shared expression grammar, whose
// names resolve to the file's declared variables.
type parser struct {
	expr.Parser
	file_ *File
}

func (p *parser) skipNewlines() {
	for p.Cur().Kind == expr.TokNewline {
		p.Pos++
	}
}

func (p *parser) endOfDecl() error {
	switch p.Cur().Kind {
	case expr.TokNewline:
		p.Pos++
		return nil
	case expr.TokEOF:
		return nil
	}
	if p.Cur().Text == "}" {
		return nil // block close terminates the declaration too
	}
	return fmt.Errorf("unexpected %s at end of declaration", p.Cur())
}

func (p *parser) file() (*File, error) {
	p.skipNewlines()
	if err := p.Expect("system"); err != nil {
		return nil, err
	}
	name, err := p.Name()
	if err != nil {
		return nil, err
	}
	sys := model.NewSystem(name)
	p.file_ = &File{Sys: sys, Ranges: map[string]tctl.Range{}}
	p.Resolve = func(name string, idx expr.Expr) (expr.Expr, error) { return expr.NewVar(sys.Vars, name, idx) }
	if err := p.endOfDecl(); err != nil {
		return nil, err
	}
	for {
		p.skipNewlines()
		t := p.Cur()
		if t.Kind == expr.TokEOF {
			return p.file_, nil
		}
		if t.Kind != expr.TokIdent {
			return nil, fmt.Errorf("expected declaration, got %s", t)
		}
		var err error
		switch t.Text {
		case "clock":
			err = p.clockDecl()
		case "int":
			err = p.intDecl()
		case "chan":
			err = p.chanDecl()
		case "range":
			err = p.rangeDecl()
		case "process":
			err = p.processDecl()
		default:
			err = fmt.Errorf("unknown declaration %q", t.Text)
		}
		if err != nil {
			return nil, err
		}
	}
}

// clock x, y
func (p *parser) clockDecl() error {
	p.Pos++ // clock
	for {
		name, err := p.Name()
		if err != nil {
			return err
		}
		if _, dup := p.file_.Sys.ClockByName(name); dup {
			return fmt.Errorf("duplicate clock %q", name)
		}
		p.file_.Sys.AddClock(name)
		if !p.Accept(",") {
			break
		}
	}
	return p.endOfDecl()
}

// int name = v range lo..hi  |  int name[n] = {a,b} range lo..hi
func (p *parser) intDecl() error {
	p.Pos++ // int
	name, err := p.Name()
	if err != nil {
		return err
	}
	d := expr.VarDecl{Name: name, Len: 1}
	if p.Accept("[") {
		n, err := p.Number()
		if err != nil {
			return err
		}
		d.Len = n
		if err := p.Expect("]"); err != nil {
			return err
		}
	}
	if p.Accept("=") {
		if p.Accept("{") {
			for {
				v, err := p.Number()
				if err != nil {
					return err
				}
				d.Init = append(d.Init, v)
				if !p.Accept(",") {
					break
				}
			}
			if err := p.Expect("}"); err != nil {
				return err
			}
		} else {
			v, err := p.Number()
			if err != nil {
				return err
			}
			d.Init = []int{v}
		}
	}
	if err := p.Expect("range"); err != nil {
		return err
	}
	if d.Min, d.Max, err = p.Span(); err != nil {
		return err
	}
	if _, err := p.file_.Sys.Vars.Declare(d); err != nil {
		return err
	}
	return p.endOfDecl()
}

// chan a, b : input|output
func (p *parser) chanDecl() error {
	p.Pos++ // chan
	var names []string
	for {
		name, err := p.Name()
		if err != nil {
			return err
		}
		names = append(names, name)
		if !p.Accept(",") {
			break
		}
	}
	if err := p.Expect(":"); err != nil {
		return err
	}
	kindName, err := p.Name()
	if err != nil {
		return err
	}
	var kind model.Kind
	switch kindName {
	case "input":
		kind = model.Controllable
	case "output":
		kind = model.Uncontrollable
	default:
		return fmt.Errorf("channel kind must be input or output, got %q", kindName)
	}
	for _, n := range names {
		if _, dup := p.file_.Sys.ChannelByName(n); dup {
			return fmt.Errorf("duplicate channel %q", n)
		}
		p.file_.Sys.AddChannel(n, kind)
	}
	return p.endOfDecl()
}

// range Name = lo..hi
func (p *parser) rangeDecl() error {
	p.Pos++ // range
	name, err := p.Name()
	if err != nil {
		return err
	}
	if err := p.Expect("="); err != nil {
		return err
	}
	lo, hi, err := p.Span()
	if err != nil {
		return err
	}
	p.file_.Ranges[name] = tctl.Range{Lo: lo, Hi: hi}
	return p.endOfDecl()
}

// process Name { ... }
func (p *parser) processDecl() error {
	p.Pos++ // process
	name, err := p.Name()
	if err != nil {
		return err
	}
	if _, dup := p.file_.Sys.ProcByName(name); dup {
		return fmt.Errorf("duplicate process %q", name)
	}
	proc := p.file_.Sys.AddProcess(name)
	if err := p.Expect("{"); err != nil {
		return err
	}
	initName := ""
	type pendingEdge struct {
		src, dst string
		edge     model.Edge
		line     int
	}
	var pending []pendingEdge
	for {
		p.skipNewlines()
		t := p.Cur()
		if t.Text == "}" && t.Kind == expr.TokPunct {
			p.Pos++
			break
		}
		switch t.Text {
		case "init":
			p.Pos++
			initName, err = p.Name()
			if err != nil {
				return err
			}
			if err := p.endOfDecl(); err != nil {
				return err
			}
		case "location":
			if err := p.locationDecl(proc); err != nil {
				return err
			}
		case "edge":
			line := t.Line
			src, dst, e, err := p.edgeDecl()
			if err != nil {
				return err
			}
			pending = append(pending, pendingEdge{src, dst, e, line})
		default:
			return fmt.Errorf("unexpected %s in process body", t)
		}
	}
	// Resolve edges and the initial location now that all locations exist.
	for _, pe := range pending {
		si, ok := proc.LocByName(pe.src)
		if !ok {
			return fmt.Errorf("line %d: unknown location %q", pe.line, pe.src)
		}
		di, ok := proc.LocByName(pe.dst)
		if !ok {
			return fmt.Errorf("line %d: unknown location %q", pe.line, pe.dst)
		}
		pe.edge.Src, pe.edge.Dst = si, di
		p.file_.Sys.AddEdge(proc, pe.edge)
	}
	if initName != "" {
		li, ok := proc.LocByName(initName)
		if !ok {
			return fmt.Errorf("unknown initial location %q", initName)
		}
		proc.SetInit(li)
	}
	return p.endOfDecl()
}

// location Name [{ inv <clock constraints> | urgent | committed }]
func (p *parser) locationDecl(proc *model.Process) error {
	p.Pos++ // location
	name, err := p.Name()
	if err != nil {
		return err
	}
	if _, dup := proc.LocByName(name); dup {
		return fmt.Errorf("duplicate location %q", name)
	}
	loc := model.Location{Name: name}
	if p.Accept("{") {
		for {
			p.skipNewlines()
			if p.Accept("}") {
				break
			}
			switch {
			case p.Accept("urgent"):
				loc.Urgent = true
			case p.Accept("committed"):
				loc.Committed = true
			case p.Accept("inv"):
				cs, err := p.clockConjunction()
				if err != nil {
					return err
				}
				loc.Invariant = append(loc.Invariant, cs...)
			default:
				return fmt.Errorf("unexpected %s in location body", p.Cur())
			}
			p.Accept(";")
		}
	}
	proc.AddLocation(loc)
	return p.endOfDecl()
}

// edge Src -> Dst [on chan?|chan!] [tau input|output] [when guard] [do {...}]
func (p *parser) edgeDecl() (src, dst string, e model.Edge, err error) {
	p.Pos++ // edge
	if src, err = p.Name(); err != nil {
		return
	}
	if err = p.Expect("->"); err != nil {
		return
	}
	if dst, err = p.Name(); err != nil {
		return
	}
	e.Dir = model.NoSync
	e.Chan = -1
	e.Kind = model.Controllable
	for {
		switch {
		case p.Accept("on"):
			var ch string
			if ch, err = p.Name(); err != nil {
				return
			}
			idx, ok := p.file_.Sys.ChannelByName(ch)
			if !ok {
				err = fmt.Errorf("unknown channel %q", ch)
				return
			}
			e.Chan = idx
			switch {
			case p.Accept("?"):
				e.Dir = model.Receive
			case p.Accept("!"):
				e.Dir = model.Emit
			default:
				err = fmt.Errorf("channel %q needs ? or !", ch)
				return
			}
		case p.Accept("tau"):
			var kindName string
			if kindName, err = p.Name(); err != nil {
				return
			}
			switch kindName {
			case "input":
				e.Kind = model.Controllable
			case "output":
				e.Kind = model.Uncontrollable
			default:
				err = fmt.Errorf("tau kind must be input or output, got %q", kindName)
				return
			}
		case p.Accept("when"):
			if err = p.guard(&e); err != nil {
				return
			}
		case p.Accept("do"):
			if err = p.doBlock(&e); err != nil {
				return
			}
		default:
			err = p.endOfDecl()
			return
		}
	}
}

// guard parses `term && term && ...` where each term is either a clock
// comparison or a data predicate.
func (p *parser) guard(e *model.Edge) error {
	for {
		cs, ok, err := p.clockTerm()
		if err != nil {
			return err
		}
		if ok {
			e.Guard.Clocks = append(e.Guard.Clocks, cs...)
		} else {
			ex, err := p.Comparison()
			if err != nil {
				return err
			}
			if e.Guard.Data == nil {
				e.Guard.Data = ex
			} else {
				e.Guard.Data = expr.NewBin(expr.OpAnd, e.Guard.Data, ex)
			}
		}
		if !p.Accept("&&") {
			return nil
		}
	}
}

// clockTerm parses one clock comparison of a guard or invariant into the
// constraints it conjoins; ok is false when the term does not start with
// a clock.
func (p *parser) clockTerm() (cs []model.ClockConstraint, ok bool, err error) {
	a, ok, err := p.ClockAtom(p.file_.Sys.ClockByName)
	if ok && err == nil {
		cs, err = model.CompareClocks(a.I, a.J, a.Op, a.K)
	}
	return cs, ok, err
}

// doBlock parses { stmt, stmt, ... } mixing clock resets and assignments.
func (p *parser) doBlock(e *model.Edge) error {
	if err := p.Expect("{"); err != nil {
		return err
	}
	for {
		p.skipNewlines()
		if p.Accept("}") {
			return nil
		}
		if ci, ok := p.file_.Sys.ClockByName(p.Cur().Text); ok {
			p.Pos++
			if err := p.Expect(":="); err != nil {
				return err
			}
			v, err := p.Number()
			if err != nil {
				return err
			}
			e.Resets = append(e.Resets, model.ClockReset{Clock: ci, Value: v})
		} else {
			lhs, err := p.Sum()
			if err != nil {
				return err
			}
			target, ok := lhs.(*expr.Var)
			if !ok {
				return fmt.Errorf("cannot assign to %s", lhs)
			}
			if err := p.Expect(":="); err != nil {
				return err
			}
			val, err := p.Sum()
			if err != nil {
				return err
			}
			e.Assigns = append(e.Assigns, expr.Assign{Target: target, Value: val})
		}
		p.Accept(",")
	}
}

// clockConjunction parses `x<=2 && x-y<5 && ...` (clock constraints only;
// used for invariants).
func (p *parser) clockConjunction() ([]model.ClockConstraint, error) {
	var out []model.ClockConstraint
	for {
		cs, ok, err := p.clockTerm()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("invariants must constrain clocks; %s is not a clock", p.Cur())
		}
		out = append(out, cs...)
		if !p.Accept("&&") {
			return out, nil
		}
	}
}
