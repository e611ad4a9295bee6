package dbm

import (
	"strings"
	"sync"
)

// Federation is a finite union of same-dimension zones. The zero value (or
// an empty zone list) is the empty set. Federations are kept reduced:
// zones included in other zones of the same federation are dropped.
type Federation struct {
	dim int
	zs  []*DBM
}

// ReduceFederations toggles inclusion reduction when zones are appended;
// exposed so benchmarks can measure its effect (ablation E4 in DESIGN.md).
var ReduceFederations = true

// fedPool recycles federation wrappers (struct plus zone-list backing
// array); the solver creates and discards millions of short-lived
// federations, so wrapper reuse matters as much as matrix reuse.
var fedPool sync.Pool

// NewFederation returns the empty federation of the given dimension.
func NewFederation(dim int) *Federation {
	if v := fedPool.Get(); v != nil {
		f := v.(*Federation)
		f.dim = dim
		return f
	}
	return &Federation{dim: dim}
}

// Recycle returns f's wrapper (struct and zone-list backing array) to the
// pool WITHOUT touching the zones — for federations whose zones were
// transferred (Union) into another federation or are shared with one.
// f must not be used after Recycle. Compare Release, which also recycles
// the zones and therefore requires exclusive ownership of them.
func (f *Federation) Recycle() {
	if f == nil {
		return
	}
	f.zs = f.zs[:0]
	fedPool.Put(f)
}

// recycle is the internal alias used by this package's hot paths.
func (f *Federation) recycle() { f.Recycle() }

// FedFromDBM wraps a single zone (nil yields the empty federation).
func FedFromDBM(dim int, d *DBM) *Federation {
	f := NewFederation(dim)
	f.Add(d)
	return f
}

// Dim returns the clock dimension.
func (f *Federation) Dim() int { return f.dim }

// Zones returns the underlying zone list (shared; callers must not mutate).
func (f *Federation) Zones() []*DBM { return f.zs }

// Size returns the number of zones.
func (f *Federation) Size() int {
	if f == nil {
		return 0
	}
	return len(f.zs)
}

// IsEmpty reports whether the federation denotes the empty set.
func (f *Federation) IsEmpty() bool { return f == nil || len(f.zs) == 0 }

// Clone returns a deep copy.
func (f *Federation) Clone() *Federation {
	c := NewFederation(f.dim)
	for _, z := range f.zs {
		c.zs = append(c.zs, z.Clone())
	}
	return c
}

// Add unions a zone into the federation, applying inclusion reduction.
func (f *Federation) Add(d *DBM) {
	if d == nil {
		return
	}
	if d.dim != f.dim {
		panic("dbm: federation dimension mismatch")
	}
	if ReduceFederations {
		for i := 0; i < len(f.zs); i++ {
			switch d.Relation(f.zs[i]) {
			case Subset, Equal:
				return // already covered
			case Superset:
				f.zs[i] = f.zs[len(f.zs)-1]
				f.zs = f.zs[:len(f.zs)-1]
				i--
			}
		}
	}
	f.zs = append(f.zs, d)
}

// AppendZone appends d without inclusion reduction, preserving the zone
// list verbatim. Serialized strategies make the decomposition (and its
// zone order) part of the contract — wait-tick tie-breaks scan zones in
// order — so revival must not let reduction reorder or drop zones the
// original construction kept. f takes ownership of d.
func (f *Federation) AppendZone(d *DBM) {
	if d == nil {
		return
	}
	if d.dim != f.dim {
		panic("dbm: federation dimension mismatch")
	}
	f.zs = append(f.zs, d)
}

// Union adds all zones of o into f.
func (f *Federation) Union(o *Federation) {
	if o == nil {
		return
	}
	for _, z := range o.zs {
		f.Add(z)
	}
}

// Intersect returns the pairwise intersection of two federations.
func (f *Federation) Intersect(o *Federation) *Federation {
	r := NewFederation(f.dim)
	if f.IsEmpty() || o.IsEmpty() {
		return r
	}
	for _, a := range f.zs {
		for _, b := range o.zs {
			r.Add(a.Intersect(b))
		}
	}
	return r
}

// SubtractDBM computes a - b as a federation of disjoint zones using the
// standard constraint-splitting decomposition: walk the facets of b that
// actually cut a, emitting a ∧ c1 ∧ .. ∧ c(k-1) ∧ ¬ck.
func SubtractDBM(a, b *DBM) *Federation {
	dim := 1
	switch {
	case a != nil:
		dim = a.dim
	case b != nil:
		dim = b.dim
	}
	f := NewFederation(dim)
	subtractInto(f, a, b, false)
	return f
}

// subtractInto appends a − b to f. When own is true, a is consumed: it may
// be mutated in place and is released to the allocator when it does not
// survive into f. Every zone appended to f is owned by f (never aliases a
// caller-retained zone), so callers may Release the result.
func subtractInto(f *Federation, a, b *DBM, own bool) {
	if a == nil {
		return
	}
	if b == nil {
		if !own {
			a = a.Clone()
		}
		f.Add(a) // ownership transfers to f
		return
	}
	if a.dim != b.dim {
		panic("dbm: subtract dimension mismatch")
	}
	rest, restOwned := a, own
	cut := false
	for i := 0; i < a.dim && rest != nil; i++ {
		for j := 0; j < a.dim && rest != nil; j++ {
			if i == j {
				continue
			}
			bb := b.At(i, j)
			if bb == Infinity || bb >= rest.At(i, j) {
				continue // facet does not cut what is left of a
			}
			cut = true
			// Outside piece: rest ∧ ¬(xi - xj ~ bb).
			f.Add(rest.Constrain(j, i, bb.Negate()))
			// Continue splitting inside the facet.
			if restOwned {
				if !rest.ConstrainInPlace(i, j, bb) {
					rest.Release()
					rest = nil
				}
			} else {
				rest = rest.Constrain(i, j, bb)
				restOwned = true
			}
		}
	}
	if !cut {
		// b does not tighten a anywhere: a ⊆ b, difference empty.
		if own {
			a.Release()
		}
		return
	}
	if restOwned {
		rest.Release() // rest ⊆ b; recycled
	}
}

// Subtract returns f minus the federation o. f and o are not modified.
func (f *Federation) Subtract(o *Federation) *Federation {
	if f.IsEmpty() {
		return NewFederation(f.dim)
	}
	cur := f.Clone()
	if o.IsEmpty() {
		return cur
	}
	cur.SubtractInPlace(o)
	return cur
}

// SubtractInPlace replaces f by f − o. f and its zones must be exclusively
// owned: zones of f that are cut by the subtraction are released to the
// allocator. o is not modified. The subtraction rounds double-buffer
// between f's own zone list and one scratch list, so no per-round
// federation is allocated.
func (f *Federation) SubtractInPlace(o *Federation) {
	if f.IsEmpty() || o.IsEmpty() {
		return
	}
	cur := f.zs
	next := NewFederation(f.dim)
	for _, b := range o.zs {
		next.zs = next.zs[:0]
		for _, a := range cur {
			subtractInto(next, a, b, true)
		}
		// The consumed round becomes the next scratch buffer.
		cur, next.zs = next.zs, cur[:0]
		if len(cur) == 0 {
			break
		}
	}
	f.zs = cur
	next.recycle()
}

// Release returns every zone of f and f's own wrapper to the allocator.
// The caller must own f and all its zones exclusively; in particular f
// must not share zones with another live federation (Union shares, Clone
// and Subtract do not), and f must not be used after Release.
func (f *Federation) Release() {
	if f == nil {
		return
	}
	for i, z := range f.zs {
		z.Release()
		f.zs[i] = nil
	}
	f.recycle()
}

// Hash returns an order-insensitive 64-bit hash of the zone decomposition
// (the sum of the zone hashes). Federations holding the same zones in any
// order hash equal; semantically equal federations with different
// decompositions generally do not — use Equals for semantic comparison.
func (f *Federation) Hash() uint64 {
	if f.IsEmpty() {
		return 0
	}
	var h uint64
	for _, z := range f.zs {
		h += z.Hash()
	}
	return h
}

// Up returns the future of the federation.
func (f *Federation) Up() *Federation {
	r := NewFederation(f.dim)
	for _, z := range f.zs {
		c := z.Clone()
		c.UpInPlace()
		r.Add(c)
	}
	return r
}

// Down returns the past of the federation.
func (f *Federation) Down() *Federation {
	r := NewFederation(f.dim)
	for _, z := range f.zs {
		c := z.Clone()
		c.DownInPlace()
		r.Add(c)
	}
	return r
}

// ContainsPoint reports membership of a scaled valuation.
func (f *Federation) ContainsPoint(v []int64, scale int64) bool {
	if f == nil {
		return false
	}
	for _, z := range f.zs {
		if z.ContainsPoint(v, scale) {
			return true
		}
	}
	return false
}

// SubsetOf reports f ⊆ o semantically (via emptiness of the difference).
func (f *Federation) SubsetOf(o *Federation) bool {
	if f.IsEmpty() {
		return true
	}
	return f.Subtract(o).IsEmpty()
}

// Equals reports semantic equality.
func (f *Federation) Equals(o *Federation) bool {
	return f.SubsetOf(o) && o.SubsetOf(f)
}

// String renders the federation as a disjunction of zones.
func (f *Federation) String() string {
	if f.IsEmpty() {
		return "false"
	}
	parts := make([]string, len(f.zs))
	for i, z := range f.zs {
		parts[i] = "(" + z.String() + ")"
	}
	return strings.Join(parts, " | ")
}

// PredT computes the timed predecessor operator of the timed-game fixpoint:
// the set of valuations from which some delay reaches `good` while the whole
// delay trajectory (including the endpoint) stays outside `bad`.
//
// For convex zones g and b:
//
//	predt(g, b) = (g↓ − b↓) ∪ ((g ∧ b↓) − b)↓
//
// and because a delay trajectory meets a convex zone in one interval, for a
// single convex g and a federation B the avoid-sets compose conjunctively:
//
//	PredT(g, B) = ⋂_{b∈B} predt(g, b),  PredT(G, B) = ⋃_{g∈G} PredT(g, B).
//
// Both identities are validated against a brute-force oracle in the tests.
func PredT(good, bad *Federation) *Federation {
	res := NewFederation(good.dim)
	if good.IsEmpty() {
		return res
	}
	if bad.IsEmpty() {
		return good.Down()
	}
	for _, g := range good.zs {
		acc := predtZone(g, bad.zs[0])
		for _, b := range bad.zs[1:] {
			if acc.IsEmpty() {
				break
			}
			pz := predtZone(g, b)
			next := acc.Intersect(pz)
			acc.Release()
			pz.Release()
			acc = next
		}
		res.Union(acc) // acc's zones transfer into res
		acc.recycle()
	}
	return res
}

// predtZone computes predt(g, b) for convex zones. The result owns all its
// zones (callers may Release it).
func predtZone(g, b *DBM) *Federation {
	gd := g.Down()
	bd := b.Down()
	r := NewFederation(g.dim)
	subtractInto(r, gd, bd, true) // consumes gd
	// Points that reach g strictly before the trajectory enters b: the past
	// of the part of g that lies before b on its own trajectory.
	before := NewFederation(g.dim)
	subtractInto(before, g.Intersect(bd), b, true)
	bd.Release()
	for _, z := range before.zs {
		z.DownInPlace()
		r.Add(z) // ownership transfers (dropped zones become garbage)
	}
	before.recycle()
	return r
}
