package tctl

import (
	"strings"
	"testing"
)

// TestSharedGrammarForms: purposes read arithmetic and comparisons through
// the grammar model files use, so forms that once parsed only in guards
// now parse in purposes too, and each spelling of a constant yields the
// same atom.
func TestSharedGrammarForms(t *testing.T) {
	s, env := lightLike()
	for _, c := range []struct{ src, want string }{
		{"control: A<> x <= 1+1", "control: A<> x <= 2"},
		{"control: A<> x <= (2)", "control: A<> x <= 2"},
		{"control: A<> x - Tp > -(1) and IUT.Dim", "control: A<> x - Tp > -1 and IUT.Dim"},
		{"control: A<> IUT.betterInfo + (IUT.betterInfo == 1) > 0", "control: A<> (IUT.betterInfo + (IUT.betterInfo == 1)) > 0"},
		{"control: A<> (IUT.betterInfo + 1) * 2 == 4 and IUT.Off", "control: A<> ((IUT.betterInfo + 1) * 2) == 4 and IUT.Off"},
		{"control: A<> (IUT.Off or IUT.Dim) // a comment", "control: A<> IUT.Off or IUT.Dim"},
		{"control: A<> x != 3", "control: A<> x < 3 or x > 3"},
	} {
		got, err := Parse(env, c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		want := MustParse(env, c.want)
		if got.Prop.String() != want.Prop.String() {
			t.Errorf("%q parses to %s, want %s", c.src, got.Prop, want.Prop)
		}
		gc, wc := got.ClockConstraints(), want.ClockConstraints()
		if len(gc) != len(wc) {
			t.Fatalf("%q: clock constraints %v, want %v", c.src, gc, wc)
		}
		for i := range gc {
			if gc[i].String(s) != wc[i].String(s) {
				t.Errorf("%q: clock constraint %s, want %s", c.src, gc[i].String(s), wc[i].String(s))
			}
		}
	}
}

// TestParseErrorPosition: errors name the byte offset where parsing
// stopped.
func TestParseErrorPosition(t *testing.T) {
	_, env := lightLike()
	for _, c := range []struct{ src, msg string }{
		{"control: A<> IUT.Nowhere", `unknown variable "IUT.Nowhere" at position 13`},
		{"control: A<> x <= Tp", "at position 18"},
		{"control: A<> IUT.Off IUT.Dim", `trailing input "IUT.Dim" at position 21`},
	} {
		_, err := Parse(env, c.src)
		if err == nil || !strings.HasPrefix(err.Error(), "tctl: ") || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%q: got %v, want an error containing %q", c.src, err, c.msg)
		}
	}
}
