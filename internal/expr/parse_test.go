package expr

import (
	"fmt"
	"strings"
	"testing"
)

// TestLex pins the token stream both front ends read: dotted names are one
// token, two-character operators are one token, comments vanish, newlines
// collapse, and every token carries its line and byte offset.
func TestLex(t *testing.T) {
	src := "A<> IUT.idle&&x-y<=-2 // note\n\n# skipped\na[i]:=0..3"
	var got []string
	for _, tok := range Lex(src) {
		got = append(got, fmt.Sprintf("%d:%d:%s", tok.Line, tok.Pos, tok))
	}
	want := []string{
		`1:0:"A"`, `1:1:"<>"`, `1:4:"IUT.idle"`, `1:12:"&&"`, `1:14:"x"`, `1:15:"-"`,
		`1:16:"y"`, `1:17:"<="`, `1:19:"-"`, `1:20:"2"`, `1:29:end of line`,
		`4:41:"a"`, `4:42:"["`, `4:43:"i"`, `4:44:"]"`, `4:45:":="`, `4:47:"0"`,
		`4:48:".."`, `4:50:"3"`, `4:51:end of line`, `4:51:end of input`,
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("tokens\n  %s\nwant\n  %s", strings.Join(got, " "), strings.Join(want, " "))
	}
}

// TestParserGrammar checks precedence, associativity, unary minus,
// parenthesized comparisons and constant folding of clock atoms.
func TestParserGrammar(t *testing.T) {
	tbl := newTestTable(t)
	parser := func(src string) *Parser {
		return &Parser{Toks: Lex(src), Resolve: func(name string, idx Expr) (Expr, error) { return NewVar(tbl, name, idx) }}
	}
	for src, want := range map[string]string{
		"a - b - 1":         "((a - b) - 1)",
		"a + b * 2 % 3":     "(a + ((b * 2) % 3))",
		"-a * -(1)":         "((0 - a) * (0 - 1))",
		"a + (a == 1) > 0":  "((a + (a == 1)) > 0)",
		"arr[a + 1] != b":   "(arr[(a + 1)] != b)",
		"(a + 1) * 2 <= 10": "(((a + 1) * 2) <= 10)",
	} {
		e, err := parser(src).Comparison()
		if err != nil || e.String() != want {
			t.Errorf("%q: %v %v, want %s", src, e, err, want)
		}
	}
	clocks := func(name string) (int, bool) { return map[string]int{"x": 1, "y": 2}[name], name == "x" || name == "y" }
	for src, want := range map[string]ClockAtom{
		"x <= 1+1":        {I: 1, Op: OpLe, K: 2},
		"x - y > (2) * 3": {I: 1, J: 2, Op: OpGt, K: 6},
		"y != -1":         {I: 2, Op: OpNe, K: -1},
	} {
		a, ok, err := parser(src).ClockAtom(clocks)
		if !ok || err != nil || a != want {
			t.Errorf("%q: %+v %v %v, want %+v", src, a, ok, err, want)
		}
	}
	for _, src := range []string{"x", "x - a < 1", "x <= a", "x <= 4 / 2"} {
		if _, ok, err := parser(src).ClockAtom(clocks); !ok || err == nil {
			t.Errorf("%q: want a clock-atom error", src)
		}
	}
	if _, ok, _ := parser("a <= 1").ClockAtom(clocks); ok {
		t.Error("a data comparison is no clock atom")
	}
}
