package expr

import (
	"fmt"
	"strconv"
	"unicode"
)

// TokKind classifies a token.
type TokKind int

const (
	TokEOF TokKind = iota
	TokIdent
	TokNum
	TokPunct
	TokNewline
)

// Token is one lexeme with its 1-based line and its byte offset in the
// source, so each front end can report errors in its own style.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Pos  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokNewline:
		return "end of line"
	}
	return fmt.Sprintf("%q", t.Text)
}

// Lex tokenizes src for both front ends. Identifiers may contain dots
// (IUT.idle is one token); comments run from // or # to the end of the
// line. Newlines are tokens, collapsed so that no two follow each other,
// because model declarations end at a newline; test purposes drop them.
func Lex(src string) []Token {
	toks := make([]Token, 0, len(src)/4+2)
	line := 1
	emitNL := func(i int) {
		if len(toks) > 0 && toks[len(toks)-1].Kind != TokNewline {
			toks = append(toks, Token{TokNewline, "\\n", line, i})
		}
	}
	isIdent := func(c byte) bool {
		return unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_' || c == '.'
	}
	for i := 0; i < len(src); {
		c, start := src[i], i
		switch {
		case c == '\n':
			emitNL(i)
			line++
			i++
		case unicode.IsSpace(rune(c)):
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/', c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			for i < len(src) && isIdent(src[i]) {
				i++
			}
			toks = append(toks, Token{TokIdent, src[start:i], line, start})
		case unicode.IsDigit(rune(c)):
			for i < len(src) && unicode.IsDigit(rune(src[i])) {
				i++
			}
			toks = append(toks, Token{TokNum, src[start:i], line, start})
		default:
			i++
			if i < len(src) {
				switch src[start : i+1] {
				case "->", "&&", "||", "==", "!=", "<=", ">=", "..", ":=", "<>", "[]":
					i++
				}
			}
			toks = append(toks, Token{TokPunct, src[start:i], line, start})
		}
	}
	emitNL(len(src))
	return append(toks, Token{TokEOF, "", line, len(src)})
}

// Parser is a cursor over a token stream carrying the expression grammar
// guards, invariants, updates and test purposes share:
//
//	comparison := sum [("==" | "!=" | "<" | "<=" | ">" | ">=") sum]
//	sum        := product {("+" | "-") product}
//	product    := primary {("*" | "/" | "%") primary}
//	primary    := number | "-" primary | "(" comparison ")" | name ["[" sum "]"]
//	clock atom := clock ["-" clock] op sum      (sum folds to a constant)
//
// The front ends embed it and add their own productions around it.
type Parser struct {
	Toks []Token
	Pos  int
	// Resolve turns a data name and its optional index into an
	// expression; it is the one place the front ends differ.
	Resolve func(name string, index Expr) (Expr, error)
}

// Cur returns the current token.
func (p *Parser) Cur() Token { return p.Toks[p.Pos] }

// Next consumes and returns the current token.
func (p *Parser) Next() Token { t := p.Toks[p.Pos]; p.Pos++; return t }

// Accept consumes the current token if its text is text.
func (p *Parser) Accept(text string) bool {
	if p.Cur().Text == text {
		p.Pos++
		return true
	}
	return false
}

// Expect consumes text or fails.
func (p *Parser) Expect(text string) error {
	if !p.Accept(text) {
		return fmt.Errorf("expected %q, got %s", text, p.Cur())
	}
	return nil
}

// Name consumes an identifier.
func (p *Parser) Name() (string, error) {
	if p.Cur().Kind != TokIdent {
		return "", fmt.Errorf("expected identifier, got %s", p.Cur())
	}
	return p.Next().Text, nil
}

// Number consumes an optionally negated integer literal.
func (p *Parser) Number() (int, error) {
	neg := p.Accept("-")
	if p.Cur().Kind != TokNum {
		return 0, fmt.Errorf("expected number, got %s", p.Cur())
	}
	v, err := strconv.Atoi(p.Next().Text)
	if neg {
		v = -v
	}
	return v, err
}

// Span consumes a range lo..hi of integer literals.
func (p *Parser) Span() (lo, hi int, err error) {
	if lo, err = p.Number(); err == nil {
		if err = p.Expect(".."); err == nil {
			hi, err = p.Number()
		}
	}
	return lo, hi, err
}

const (
	levelCompare = 1 + iota
	levelSum
	levelProduct
)

// binary returns the operator text spells and its precedence level, or
// level 0 when text is no binary operator.
func binary(text string) (Op, int) {
	switch text {
	case "==":
		return OpEq, levelCompare
	case "!=":
		return OpNe, levelCompare
	case "<":
		return OpLt, levelCompare
	case "<=":
		return OpLe, levelCompare
	case ">":
		return OpGt, levelCompare
	case ">=":
		return OpGe, levelCompare
	case "+":
		return OpAdd, levelSum
	case "-":
		return OpSub, levelSum
	case "*":
		return OpMul, levelProduct
	case "/":
		return OpDiv, levelProduct
	case "%":
		return OpMod, levelProduct
	}
	return 0, 0
}

// IsOperator reports whether a token continues an expression: a
// comparison or an arithmetic operator.
func IsOperator(t Token) bool {
	_, level := binary(t.Text)
	return level > 0
}

// Comparison parses sum [op sum]; without an operator the sum itself is
// the (boolean) value.
func (p *Parser) Comparison() (Expr, error) {
	l, err := p.Sum()
	if err != nil {
		return nil, err
	}
	op, level := binary(p.Cur().Text)
	if level != levelCompare {
		return l, nil
	}
	p.Pos++
	r, err := p.Sum()
	if err != nil {
		return nil, err
	}
	return NewBin(op, l, r), nil
}

// Sum parses product {(+|-) product}.
func (p *Parser) Sum() (Expr, error) { return p.chain(levelSum) }

// chain parses a left-associative run of one level's operators over
// operands of the next level; products are runs over primaries.
func (p *Parser) chain(level int) (Expr, error) {
	l, err := p.operand(level)
	if err != nil {
		return nil, err
	}
	for {
		op, lv := binary(p.Cur().Text)
		if lv != level {
			return l, nil
		}
		p.Pos++
		r, err := p.operand(level)
		if err != nil {
			return nil, err
		}
		l = NewBin(op, l, r)
	}
}

func (p *Parser) operand(level int) (Expr, error) {
	if level == levelProduct {
		return p.primary()
	}
	return p.chain(level + 1)
}

func (p *Parser) primary() (Expr, error) {
	t := p.Cur()
	switch {
	case t.Kind == TokNum:
		v, err := p.Number()
		return Lit(v), err
	case p.Accept("-"):
		e, err := p.primary()
		if err != nil {
			return nil, err
		}
		return NewBin(OpSub, Lit(0), e), nil
	case p.Accept("("):
		e, err := p.Comparison()
		if err != nil {
			return nil, err
		}
		return e, p.Expect(")")
	case t.Kind == TokIdent:
		at := p.Pos
		p.Pos++
		var idx Expr
		if p.Accept("[") {
			var err error
			if idx, err = p.Sum(); err != nil {
				return nil, err
			}
			if err := p.Expect("]"); err != nil {
				return nil, err
			}
		}
		e, err := p.Resolve(t.Text, idx)
		if err != nil {
			p.Pos = at // report the error at the name
			return nil, err
		}
		return e, nil
	}
	return nil, fmt.Errorf("unexpected %s in expression", t)
}

// ClockAtom is a clock comparison xI - xJ op K; J is 0 for a single clock.
type ClockAtom struct {
	I, J int
	Op   Op
	K    int
}

// ClockAtom parses `clock [- clock] op constant` when the current token
// names a clock, as clock (System.ClockByName) resolves them; otherwise it
// consumes nothing and reports ok false. The constant is any sum of
// literals folded over +, - and *.
func (p *Parser) ClockAtom(clock func(name string) (int, bool)) (a ClockAtom, ok bool, err error) {
	if p.Cur().Kind != TokIdent {
		return a, false, nil
	}
	if a.I, ok = clock(p.Cur().Text); !ok {
		return a, false, nil
	}
	p.Pos++
	if p.Accept("-") {
		name, err := p.Name()
		if err != nil {
			return a, true, err
		}
		if a.J, ok = clock(name); !ok {
			return a, true, fmt.Errorf("clock difference needs two clocks, %q is not a clock", name)
		}
	}
	op, level := binary(p.Cur().Text)
	if level != levelCompare {
		return a, true, fmt.Errorf("clock expression needs a comparison, got %s", p.Cur())
	}
	a.Op = op
	p.Pos++
	k, err := p.Sum()
	if err != nil {
		return a, true, err
	}
	if a.K, ok = fold(k); !ok {
		return a, true, fmt.Errorf("clock comparison needs a constant right-hand side, got %s", k)
	}
	return a, true, nil
}

// fold evaluates a constant expression built from literals, +, - and *.
func fold(e Expr) (int, bool) {
	switch v := e.(type) {
	case Lit:
		return int(v), true
	case *Bin:
		l, lok := fold(v.L)
		r, rok := fold(v.R)
		if !lok || !rok {
			return 0, false
		}
		switch v.Op {
		case OpAdd:
			return l + r, true
		case OpSub:
			return l - r, true
		case OpMul:
			return l * r, true
		}
	}
	return 0, false
}
