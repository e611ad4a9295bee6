// Package expr provides bounded integer variables, arrays and a small
// expression language used for data guards, updates and test-purpose
// predicates in timed-automata models (the UPPAAL-style data layer), and
// the one lexer and expression grammar both text front ends parse it with:
// model files (internal/dsl) and test purposes (internal/tctl).
//
// Key types: Table (the declaration table mapping names to offsets in an
// int32 environment), Expr/Assign trees built by NewVar/NewBin/Lit, and
// Ctx binding a table to one environment for Truth/Eval/ApplyAll. Lex and
// Parser (parse.go) read comparisons, arithmetic and clock atoms; each
// front end embeds a Parser and resolves names through its Resolve hook.
// Tables and expression trees are immutable after construction and safe
// to share; a Ctx or a Parser is single-caller.
package expr

import "fmt"

// VarDecl declares a bounded integer variable or array.
type VarDecl struct {
	Name     string
	Min, Max int   // value bounds, inclusive
	Len      int   // 1 for scalars, >1 for arrays
	Init     []int // initial values, one per element (nil = all Min..0 clamped)
	Offset   int   // slot offset in the environment, set by the table
}

// Table is an ordered collection of variable declarations; it defines the
// layout of the discrete-state vector.
type Table struct {
	decls  []VarDecl
	byName map[string]int
	slots  int
}

// NewTable returns an empty variable table.
func NewTable() *Table {
	return &Table{byName: map[string]int{}}
}

// Declare adds a variable; it returns the declaration index.
func (t *Table) Declare(d VarDecl) (int, error) {
	if d.Len <= 0 {
		d.Len = 1
	}
	if d.Min > d.Max {
		return 0, fmt.Errorf("expr: variable %s has empty range [%d,%d]", d.Name, d.Min, d.Max)
	}
	if _, dup := t.byName[d.Name]; dup {
		return 0, fmt.Errorf("expr: duplicate variable %s", d.Name)
	}
	if d.Init != nil && len(d.Init) != d.Len {
		return 0, fmt.Errorf("expr: variable %s: %d initializers for %d elements", d.Name, len(d.Init), d.Len)
	}
	for _, v := range d.Init {
		if v < d.Min || v > d.Max {
			return 0, fmt.Errorf("expr: variable %s: initializer %d outside [%d,%d]", d.Name, v, d.Min, d.Max)
		}
	}
	d.Offset = t.slots
	t.slots += d.Len
	idx := len(t.decls)
	t.decls = append(t.decls, d)
	t.byName[d.Name] = idx
	return idx, nil
}

// MustDeclare is Declare for static model construction; it panics on error.
func (t *Table) MustDeclare(d VarDecl) int {
	idx, err := t.Declare(d)
	if err != nil {
		panic(err)
	}
	return idx
}

// Lookup finds a declaration index by name.
func (t *Table) Lookup(name string) (int, bool) {
	i, ok := t.byName[name]
	return i, ok
}

// Decl returns the declaration at index i.
func (t *Table) Decl(i int) VarDecl { return t.decls[i] }

// NumDecls returns the number of declarations.
func (t *Table) NumDecls() int { return len(t.decls) }

// Slots returns the total number of environment slots.
func (t *Table) Slots() int { return t.slots }

// InitialEnv builds the initial discrete-state vector.
func (t *Table) InitialEnv() []int32 {
	env := make([]int32, t.slots)
	for _, d := range t.decls {
		for k := 0; k < d.Len; k++ {
			v := 0
			if d.Init != nil {
				v = d.Init[k]
			}
			if v < d.Min {
				v = d.Min
			}
			if v > d.Max {
				v = d.Max
			}
			env[d.Offset+k] = int32(v)
		}
	}
	return env
}

// Ctx is an evaluation context: the table, a concrete environment and
// the stack of quantifier bindings in scope, innermost last. A quantifier
// pushes its binding for the duration of its body and pops it after, so an
// inner binding shadows an outer one of the same name.
type Ctx struct {
	Tbl  *Table
	Env  []int32
	Bind []Binding
}

// Binding gives a quantifier-bound name its current value.
type Binding struct {
	Name string
	Val  int
}

// Expr is an integer expression (booleans are 0/1).
type Expr interface {
	Eval(c *Ctx) (int, error)
	String() string
}

// Op enumerates binary operators.
type Op int

const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||",
}

// Lit is an integer literal.
type Lit int

func (l Lit) Eval(*Ctx) (int, error) { return int(l), nil }
func (l Lit) String() string         { return fmt.Sprintf("%d", int(l)) }

// True and False are boolean literals.
const (
	False = Lit(0)
	True  = Lit(1)
)

// Var references a declared variable, optionally indexed (arrays).
type Var struct {
	Decl  int
	Index Expr // nil for scalars
	name  string
}

// NewVar builds a reference to the named variable in the table.
func NewVar(t *Table, name string, index Expr) (*Var, error) {
	i, ok := t.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("expr: unknown variable %s", name)
	}
	d := t.Decl(i)
	if d.Len > 1 && index == nil {
		return nil, fmt.Errorf("expr: array %s used without index", name)
	}
	if d.Len == 1 && index != nil {
		return nil, fmt.Errorf("expr: scalar %s used with index", name)
	}
	return &Var{Decl: i, Index: index, name: name}, nil
}

// MustVar is NewVar that panics; for static model construction.
func MustVar(t *Table, name string, index Expr) *Var {
	v, err := NewVar(t, name, index)
	if err != nil {
		panic(err)
	}
	return v
}

// slot resolves the environment slot of the reference.
func (v *Var) slot(c *Ctx) (int, error) {
	d := c.Tbl.Decl(v.Decl)
	k := 0
	if v.Index != nil {
		var err error
		k, err = v.Index.Eval(c)
		if err != nil {
			return 0, err
		}
		if k < 0 || k >= d.Len {
			return 0, fmt.Errorf("expr: index %d out of range for %s[%d]", k, d.Name, d.Len)
		}
	}
	return d.Offset + k, nil
}

func (v *Var) Eval(c *Ctx) (int, error) {
	s, err := v.slot(c)
	if err != nil {
		return 0, err
	}
	return int(c.Env[s]), nil
}

func (v *Var) String() string {
	if v.Index != nil {
		return fmt.Sprintf("%s[%s]", v.name, v.Index)
	}
	return v.name
}

// Bound references a quantifier-bound name (forall/exists index).
type Bound string

func (b Bound) Eval(c *Ctx) (int, error) {
	for i := len(c.Bind) - 1; i >= 0; i-- {
		if c.Bind[i].Name == string(b) {
			return c.Bind[i].Val, nil
		}
	}
	return 0, fmt.Errorf("expr: unbound name %s", string(b))
}

func (b Bound) String() string { return string(b) }

// Bin is a binary operation.
type Bin struct {
	Op   Op
	L, R Expr
}

func NewBin(op Op, l, r Expr) *Bin { return &Bin{Op: op, L: l, R: r} }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (b *Bin) Eval(c *Ctx) (int, error) {
	l, err := b.L.Eval(c)
	if err != nil {
		return 0, err
	}
	// Short-circuit the boolean connectives.
	switch b.Op {
	case OpAnd:
		if l == 0 {
			return 0, nil
		}
		r, err := b.R.Eval(c)
		if err != nil {
			return 0, err
		}
		return b2i(r != 0), nil
	case OpOr:
		if l != 0 {
			return 1, nil
		}
		r, err := b.R.Eval(c)
		if err != nil {
			return 0, err
		}
		return b2i(r != 0), nil
	}
	r, err := b.R.Eval(c)
	if err != nil {
		return 0, err
	}
	switch b.Op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("expr: division by zero in %s", b)
		}
		return l / r, nil
	case OpMod:
		if r == 0 {
			return 0, fmt.Errorf("expr: modulo by zero in %s", b)
		}
		return l % r, nil
	case OpEq:
		return b2i(l == r), nil
	case OpNe:
		return b2i(l != r), nil
	case OpLt:
		return b2i(l < r), nil
	case OpLe:
		return b2i(l <= r), nil
	case OpGt:
		return b2i(l > r), nil
	case OpGe:
		return b2i(l >= r), nil
	}
	return 0, fmt.Errorf("expr: unknown operator %d", b.Op)
}

func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, opNames[b.Op], b.R)
}

// Not is boolean negation.
type Not struct{ E Expr }

func (n *Not) Eval(c *Ctx) (int, error) {
	v, err := n.E.Eval(c)
	if err != nil {
		return 0, err
	}
	return b2i(v == 0), nil
}

func (n *Not) String() string { return fmt.Sprintf("!(%s)", n.E) }

// Quant is a bounded quantifier over an integer range.
type Quant struct {
	ForAll bool
	Name   string
	Lo, Hi int // inclusive range
	Body   Expr
}

func (q *Quant) Eval(c *Ctx) (int, error) {
	k := len(c.Bind)
	c.Bind = append(c.Bind, Binding{Name: q.Name})
	defer func() { c.Bind = c.Bind[:k] }()
	for i := q.Lo; i <= q.Hi; i++ {
		c.Bind[k].Val = i
		v, err := q.Body.Eval(c)
		if err != nil {
			return 0, err
		}
		if q.ForAll && v == 0 {
			return 0, nil
		}
		if !q.ForAll && v != 0 {
			return 1, nil
		}
	}
	return b2i(q.ForAll), nil
}

func (q *Quant) String() string {
	kw := "exists"
	if q.ForAll {
		kw = "forall"
	}
	return fmt.Sprintf("%s (%s:%d..%d) %s", kw, q.Name, q.Lo, q.Hi, q.Body)
}

// Assign is an assignment statement target := value.
type Assign struct {
	Target *Var
	Value  Expr
}

// Apply evaluates the assignment in place, enforcing the target's bounds.
func (a Assign) Apply(c *Ctx) error {
	v, err := a.Value.Eval(c)
	if err != nil {
		return err
	}
	s, err := a.Target.slot(c)
	if err != nil {
		return err
	}
	d := c.Tbl.Decl(a.Target.Decl)
	if v < d.Min || v > d.Max {
		return fmt.Errorf("expr: %s := %d outside range [%d,%d]", a.Target, v, d.Min, d.Max)
	}
	c.Env[s] = int32(v)
	return nil
}

func (a Assign) String() string { return fmt.Sprintf("%s := %s", a.Target, a.Value) }

// ApplyAll executes a sequence of assignments left to right.
func ApplyAll(c *Ctx, as []Assign) error {
	for _, a := range as {
		if err := a.Apply(c); err != nil {
			return err
		}
	}
	return nil
}

// Truth evaluates e as a boolean guard.
func Truth(c *Ctx, e Expr) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(c)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}
