package dsl

import (
	"fmt"
	"sort"
	"strings"

	"tigatest/internal/expr"
	"tigatest/internal/model"
	"tigatest/internal/tctl"
)

// Print serializes a system (plus optional named ranges) back to the DSL.
// Parse(Print(f)) yields a behaviourally identical file, which the tests
// verify by solving games on both.
func Print(sys *model.System, ranges map[string]tctl.Range) string {
	var b strings.Builder
	fmt.Fprintf(&b, "system %s\n\n", identSafe(sys.Name))

	if len(sys.Clocks) > 1 {
		names := make([]string, 0, len(sys.Clocks)-1)
		for _, c := range sys.Clocks[1:] {
			names = append(names, c.Name)
		}
		fmt.Fprintf(&b, "clock %s\n", strings.Join(names, ", "))
	}
	for i := 0; i < sys.Vars.NumDecls(); i++ {
		d := sys.Vars.Decl(i)
		if d.Len > 1 {
			fmt.Fprintf(&b, "int %s[%d]", d.Name, d.Len)
			if d.Init != nil {
				strs := make([]string, len(d.Init))
				for k, v := range d.Init {
					strs[k] = fmt.Sprintf("%d", v)
				}
				fmt.Fprintf(&b, " = {%s}", strings.Join(strs, ","))
			}
		} else {
			fmt.Fprintf(&b, "int %s", d.Name)
			if d.Init != nil {
				fmt.Fprintf(&b, " = %d", d.Init[0])
			}
		}
		fmt.Fprintf(&b, " range %d..%d\n", d.Min, d.Max)
	}
	var inputs, outputs []string
	for _, c := range sys.Channels {
		if c.Kind == model.Controllable {
			inputs = append(inputs, c.Name)
		} else {
			outputs = append(outputs, c.Name)
		}
	}
	if len(inputs) > 0 {
		fmt.Fprintf(&b, "chan %s : input\n", strings.Join(inputs, ", "))
	}
	if len(outputs) > 0 {
		fmt.Fprintf(&b, "chan %s : output\n", strings.Join(outputs, ", "))
	}
	var rnames []string
	for name := range ranges {
		rnames = append(rnames, name)
	}
	sort.Strings(rnames)
	for _, name := range rnames {
		r := ranges[name]
		fmt.Fprintf(&b, "range %s = %d..%d\n", name, r.Lo, r.Hi)
	}

	for _, p := range sys.Procs {
		fmt.Fprintf(&b, "\nprocess %s {\n", p.Name)
		fmt.Fprintf(&b, "    init %s\n", p.Locations[p.Init].Name)
		for _, loc := range p.Locations {
			fmt.Fprintf(&b, "    location %s", loc.Name)
			var attrs []string
			if loc.Urgent {
				attrs = append(attrs, "urgent")
			}
			if loc.Committed {
				attrs = append(attrs, "committed")
			}
			for _, c := range loc.Invariant {
				attrs = append(attrs, "inv "+c.String(sys))
			}
			if len(attrs) > 0 {
				fmt.Fprintf(&b, " { %s }", strings.Join(attrs, "; "))
			}
			fmt.Fprintln(&b)
		}
		for ei := range p.Edges {
			e := &p.Edges[ei]
			fmt.Fprintf(&b, "    edge %s -> %s", p.Locations[e.Src].Name, p.Locations[e.Dst].Name)
			switch e.Dir {
			case model.Emit:
				fmt.Fprintf(&b, " on %s!", sys.Channels[e.Chan].Name)
			case model.Receive:
				fmt.Fprintf(&b, " on %s?", sys.Channels[e.Chan].Name)
			default:
				if e.Kind == model.Controllable {
					fmt.Fprintf(&b, " tau input")
				} else {
					fmt.Fprintf(&b, " tau output")
				}
			}
			var guards []string
			for _, c := range e.Guard.Clocks {
				guards = append(guards, c.String(sys))
			}
			for _, c := range conjuncts(e.Guard.Data) {
				guards = append(guards, stripOuterParens(c.String()))
			}
			if len(guards) > 0 {
				fmt.Fprintf(&b, " when %s", strings.Join(guards, " && "))
			}
			var dos []string
			for _, r := range e.Resets {
				dos = append(dos, fmt.Sprintf("%s := %d", sys.Clocks[r.Clock].Name, r.Value))
			}
			for _, a := range e.Assigns {
				dos = append(dos, a.String())
			}
			if len(dos) > 0 {
				fmt.Fprintf(&b, " do { %s }", strings.Join(dos, ", "))
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintln(&b, "}")
	}
	return b.String()
}

// identSafe maps arbitrary system names onto the DSL's identifier syntax.
func identSafe(s string) string {
	out := []rune(s)
	for i, r := range out {
		ok := r == '_' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			out[i] = '_'
		}
	}
	if len(out) == 0 {
		return "unnamed"
	}
	return string(out)
}

// conjuncts splits a data guard at its top-level &&s: the parser reads a
// guard as a flat run of terms, so a nested conjunction prints flat.
func conjuncts(e expr.Expr) []expr.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*expr.Bin); ok && b.Op == expr.OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []expr.Expr{e}
}

func stripOuterParens(s string) string {
	for len(s) > 1 && s[0] == '(' && s[len(s)-1] == ')' {
		depth := 0
		balanced := true
		for i := 0; i < len(s)-1; i++ {
			switch s[i] {
			case '(':
				depth++
			case ')':
				depth--
			}
			if depth == 0 {
				balanced = false
				break
			}
		}
		if !balanced {
			return s
		}
		s = s[1 : len(s)-1]
	}
	return s
}
