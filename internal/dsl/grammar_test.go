package dsl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// grammarModel wraps one edge guard and one invariant in a minimal model.
func grammarModel(inv, guard string) string {
	return fmt.Sprintf(`system g
clock x, y
int a range 0..3
int b range 0..3
chan c : input
process P {
    init A
    location A { inv %s }
    edge A -> A on c? when %s
}
process Q {
    init B
    location B
    edge B -> B on c!
}
`, inv, guard)
}

// TestSharedGrammarForms: guards and invariants read constants, clock
// differences and data comparisons through the grammar purposes use, so
// forms that once parsed only as purposes now parse in model files too.
func TestSharedGrammarForms(t *testing.T) {
	want := MustParse(grammarModel("x <= 2", "x <= 2 && y - x > -1 && (a + (a == 1)) > 0")).Sys.Procs[0]
	for _, c := range []struct{ inv, guard string }{
		{"x <= 1+1", "x <= (2) && y - x > 1 - 2 && a + (a == 1) > 0"},
		{"x <= (2)", "x <= 2 * 3 - 4 && y - x > -(1) && a + (a == 1) > 0"},
	} {
		f, err := Parse(grammarModel(c.inv, c.guard))
		if err != nil {
			t.Fatalf("inv %q, guard %q: %v", c.inv, c.guard, err)
		}
		got := f.Sys.Procs[0]
		if !reflect.DeepEqual(got.Locations[0].Invariant, want.Locations[0].Invariant) {
			t.Errorf("inv %q: %v, want %v", c.inv, got.Locations[0].Invariant, want.Locations[0].Invariant)
		}
		g, w := got.Edges[0].Guard, want.Edges[0].Guard
		if !reflect.DeepEqual(g.Clocks, w.Clocks) || g.Data.String() != w.Data.String() {
			t.Errorf("guard %q: %v %s, want %v %s", c.guard, g.Clocks, g.Data, w.Clocks, w.Data)
		}
	}
}

// TestGrammarRejects: a guard is a conjunction, so != on clocks stays an
// error in model files, and duplicate declarations are errors rather than
// panics.
func TestGrammarRejects(t *testing.T) {
	for _, c := range []struct{ name, src, msg string }{
		{"clock !=", grammarModel("x <= 2", "x != 2"), "disjunction"},
		{"clock on the right", grammarModel("x <= 2", "2 > x"), "unknown variable"},
		{"non-constant bound", grammarModel("x <= a", "a == 1"), "constant"},
		{"data invariant", grammarModel("a <= 2", "a == 1"), "not a clock"},
		{"duplicate clock", "system s\nclock x, x\n", "duplicate clock"},
		{"duplicate channel", "system s\nchan c : input\nchan c : output\n", "duplicate channel"},
		{"duplicate process", "system s\nprocess P { location A }\nprocess P { location A }\n", "duplicate process"},
		{"duplicate location", "system s\nprocess P { location A\nlocation A }\n", "duplicate location"},
	} {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.msg)
		}
	}
}

// TestNestedConjunctionRoundTrip: a guard of three data terms prints flat
// and parses back to the same model.
func TestNestedConjunctionRoundTrip(t *testing.T) {
	f := MustParse(grammarModel("x <= 2", "a == 1 && b == 1 && a < b"))
	printed := Print(f.Sys, f.Ranges)
	if !strings.Contains(printed, "when a == 1 && b == 1 && a < b") {
		t.Errorf("guard not printed flat:\n%s", printed)
	}
	again, err := Parse(printed)
	if err != nil {
		t.Fatalf("printed form does not parse: %v\n%s", err, printed)
	}
	if again.Sys.HashKey() != f.Sys.HashKey() {
		t.Error("round trip changed the model")
	}
}
