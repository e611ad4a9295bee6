package dbm

import (
	"fmt"
	"strings"
)

// DBM is a canonical difference bound matrix over dim clocks including the
// reference clock 0. Entry (i,j) bounds xi - xj from above. The nil *DBM
// represents the empty zone; every exported operation returns nil when the
// result is empty and keeps non-empty results closed (canonical).
type DBM struct {
	dim int
	m   []Bound // row-major dim*dim
}

// New returns the universal zone over dim clocks (dim includes the reference
// clock, so dim = number-of-real-clocks + 1): all clocks are non-negative
// and otherwise unconstrained.
func New(dim int) *DBM {
	if dim < 1 {
		panic("dbm: dimension must include the reference clock")
	}
	d := alloc(dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			switch {
			case i == j:
				d.set(i, j, LEZero)
			case i == 0:
				d.set(i, j, LEZero) // -xj <= 0
			default:
				d.set(i, j, Infinity)
			}
		}
	}
	return d
}

// Zero returns the zone containing exactly the valuation with all clocks 0.
func Zero(dim int) *DBM {
	d := alloc(dim)
	for i := range d.m {
		d.m[i] = LEZero
	}
	return d
}

// Point returns the zone containing exactly the given integer valuation
// (vals[i] is the value of clock i+1).
func Point(dim int, vals []int) *DBM {
	if len(vals) != dim-1 {
		panic("dbm: Point needs one value per real clock")
	}
	d := Zero(dim)
	for i, v := range vals {
		d.set(i+1, 0, LE(v))
		d.set(0, i+1, LE(-v))
	}
	for i := 1; i < dim; i++ {
		for j := 1; j < dim; j++ {
			if i != j {
				d.set(i, j, LE(vals[i-1]-vals[j-1]))
			}
		}
	}
	return d
}

// FromBounds returns a DBM with the given row-major bound matrix copied
// verbatim. The matrix must already be closed (canonical) — no re-closure
// or emptiness check is run — which is the contract for reviving zones
// from a serialized strategy, where every matrix was canonical when
// written and integrity is guarded by the stream checksum.
func FromBounds(dim int, m []Bound) *DBM {
	if len(m) != dim*dim {
		panic("dbm: FromBounds needs a dim*dim matrix")
	}
	d := alloc(dim)
	copy(d.m, m)
	return d
}

// Dim returns the dimension (number of clocks including the reference).
func (d *DBM) Dim() int { return d.dim }

// At returns the bound on xi - xj.
func (d *DBM) At(i, j int) Bound { return d.m[i*d.dim+j] }

func (d *DBM) set(i, j int, b Bound) { d.m[i*d.dim+j] = b }

// Clone returns a deep copy.
func (d *DBM) Clone() *DBM {
	if d == nil {
		return nil
	}
	c := alloc(d.dim)
	copy(c.m, d.m)
	return c
}

// close canonicalizes in place with Floyd-Warshall and reports whether the
// zone is non-empty.
func (d *DBM) close() bool {
	n := d.dim
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d.At(i, k)
			if dik == Infinity {
				continue
			}
			for j := 0; j < n; j++ {
				if b := Add(dik, d.At(k, j)); b < d.At(i, j) {
					d.set(i, j, b)
				}
			}
		}
		if d.At(k, k) < LEZero {
			return false
		}
	}
	for i := 0; i < n; i++ {
		if d.At(i, i) < LEZero {
			return false
		}
	}
	return true
}

// ConstrainInPlace conjoins the constraint xi - xj ~ b into d, keeping d
// canonical, and reports whether the result is non-empty. On false the
// contents of d are unspecified and the caller should discard (or Release)
// it. d must be exclusively owned.
func (d *DBM) ConstrainInPlace(i, j int, b Bound) bool {
	if b == Infinity || b >= d.At(i, j) {
		return true
	}
	// Quick infeasibility check: b together with the reverse path must keep
	// the cycle non-negative.
	if Add(d.At(j, i), b) < LEZero {
		return false
	}
	d.set(i, j, b)
	// Incremental closure: only paths through (i,j) can have improved.
	n := d.dim
	for p := 0; p < n; p++ {
		pi := d.At(p, i)
		if pi == Infinity {
			continue
		}
		for q := 0; q < n; q++ {
			if nb := Add(Add(pi, b), d.At(j, q)); nb < d.At(p, q) {
				d.set(p, q, nb)
			}
		}
	}
	for k := 0; k < n; k++ {
		if d.At(k, k) < LEZero {
			return false
		}
	}
	return true
}

// Constrain returns d intersected with the constraint xi - xj ~ b, or nil if
// the result is empty.
func (d *DBM) Constrain(i, j int, b Bound) *DBM {
	if d == nil {
		return nil
	}
	if b == Infinity || b >= d.At(i, j) {
		return d.Clone()
	}
	if Add(d.At(j, i), b) < LEZero {
		return nil
	}
	c := d.Clone()
	if !c.ConstrainInPlace(i, j, b) {
		c.Release()
		return nil
	}
	return c
}

// IntersectInPlace conjoins o into d, keeping d canonical, and reports
// whether the result is non-empty. On false the contents of d are
// unspecified and the caller should discard (or Release) it. d must be
// exclusively owned.
func (d *DBM) IntersectInPlace(o *DBM) bool {
	if d.dim != o.dim {
		panic("dbm: dimension mismatch")
	}
	changed := false
	for i := range d.m {
		if o.m[i] < d.m[i] {
			d.m[i] = o.m[i]
			changed = true
		}
	}
	return !changed || d.close()
}

// Intersect returns the conjunction of d and o, or nil when disjoint.
func (d *DBM) Intersect(o *DBM) *DBM {
	if d == nil || o == nil {
		return nil
	}
	c := d.Clone()
	if !c.IntersectInPlace(o) {
		c.Release()
		return nil
	}
	return c
}

// UpInPlace replaces d by its future in place (d stays closed: see
// Bengtsson & Yi, "Timed Automata: Semantics, Algorithms and Tools").
func (d *DBM) UpInPlace() {
	for i := 1; i < d.dim; i++ {
		d.set(i, 0, Infinity)
	}
}

// Up returns the future of d: every valuation reachable from d by letting
// time pass. (Delay preserves clock differences.)
func (d *DBM) Up() *DBM {
	if d == nil {
		return nil
	}
	c := d.Clone()
	c.UpInPlace()
	return c
}

// DownInPlace replaces d by its past in place (relaxation cannot introduce
// emptiness).
func (d *DBM) DownInPlace() {
	for j := 1; j < d.dim; j++ {
		d.set(0, j, LEZero)
	}
	d.close()
}

// Down returns the past of d: every valuation from which some delay leads
// into d (all clocks kept non-negative).
func (d *DBM) Down() *DBM {
	if d == nil {
		return nil
	}
	c := d.Clone()
	c.DownInPlace()
	return c
}

// ResetInPlace sets clock i to the non-negative integer value v in place
// (d remains closed).
func (d *DBM) ResetInPlace(i, v int) {
	if i <= 0 || i >= d.dim {
		panic("dbm: Reset on reference or out-of-range clock")
	}
	for j := 0; j < d.dim; j++ {
		if j == i {
			continue
		}
		d.set(i, j, Add(LE(v), d.At(0, j)))
		d.set(j, i, Add(d.At(j, 0), LE(-v)))
	}
	d.set(i, i, LEZero)
}

// Reset returns d with clock i set to the non-negative integer value v.
func (d *DBM) Reset(i int, v int) *DBM {
	if d == nil {
		return nil
	}
	c := d.Clone()
	c.ResetInPlace(i, v)
	return c
}

// FreeInPlace removes all constraints on clock i in place (d remains
// closed).
func (d *DBM) FreeInPlace(i int) {
	if i <= 0 || i >= d.dim {
		panic("dbm: Free on reference or out-of-range clock")
	}
	for j := 0; j < d.dim; j++ {
		if j == i {
			continue
		}
		d.set(i, j, Infinity)
		d.set(j, i, d.At(j, 0))
	}
	d.set(i, 0, Infinity)
	d.set(0, i, LEZero)
}

// Free returns d with all constraints on clock i removed (xi ranges over all
// non-negative reals consistent with the other clocks).
func (d *DBM) Free(i int) *DBM {
	if d == nil {
		return nil
	}
	c := d.Clone()
	c.FreeInPlace(i)
	return c
}

// Relation flags.
type Relation int

const (
	Different Relation = iota
	Subset             // d is strictly inside o
	Superset           // d strictly contains o
	Equal
)

// Relation compares two non-empty canonical DBMs.
func (d *DBM) Relation(o *DBM) Relation {
	if d.dim != o.dim {
		panic("dbm: dimension mismatch")
	}
	sub, sup := true, true
	for i := range d.m {
		if d.m[i] > o.m[i] {
			sub = false
		}
		if d.m[i] < o.m[i] {
			sup = false
		}
		if !sub && !sup {
			return Different
		}
	}
	switch {
	case sub && sup:
		return Equal
	case sub:
		return Subset
	default:
		return Superset
	}
}

// SubsetOf reports d ⊆ o for canonical DBMs (nil is the empty zone).
func (d *DBM) SubsetOf(o *DBM) bool {
	if d == nil {
		return true
	}
	if o == nil {
		return false
	}
	r := d.Relation(o)
	return r == Subset || r == Equal
}

// Equals reports semantic equality of canonical DBMs.
func (d *DBM) Equals(o *DBM) bool {
	if d == nil || o == nil {
		return d == nil && o == nil
	}
	if d.dim != o.dim {
		return false
	}
	for i := range d.m {
		if d.m[i] != o.m[i] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether the scaled valuation v (v[i] is clock i+1
// times scale) lies in d.
func (d *DBM) ContainsPoint(v []int64, scale int64) bool {
	if d == nil {
		return false
	}
	if len(v) != d.dim-1 {
		panic("dbm: valuation size mismatch")
	}
	val := func(i int) int64 {
		if i == 0 {
			return 0
		}
		return v[i-1]
	}
	for i := 0; i < d.dim; i++ {
		for j := 0; j < d.dim; j++ {
			if i == j {
				continue
			}
			if !d.At(i, j).SatisfiedBy(val(i)-val(j), scale) {
				return false
			}
		}
	}
	return true
}

// DelayInterval computes the set of delays t >= 0 with v + t in d, for a
// scaled valuation v. It returns ok=false when the set is empty; otherwise
// [lo,hi] with strictness flags (hi may be Unbounded).
type Interval struct {
	Lo        int64
	LoStrict  bool
	Hi        int64
	HiStrict  bool
	Unbounded bool
}

// DelayInterval returns the interval of delays t such that v+t lies in d.
// Delay shifts all clocks equally, so difference constraints must already
// hold; only the bounds against the reference clock move.
func (d *DBM) DelayInterval(v []int64, scale int64) (Interval, bool) {
	if d == nil {
		return Interval{}, false
	}
	val := func(i int) int64 {
		if i == 0 {
			return 0
		}
		return v[i-1]
	}
	// Difference constraints are delay-invariant.
	for i := 1; i < d.dim; i++ {
		for j := 1; j < d.dim; j++ {
			if i != j && !d.At(i, j).SatisfiedBy(val(i)-val(j), scale) {
				return Interval{}, false
			}
		}
	}
	iv := Interval{Lo: 0, LoStrict: false, Unbounded: true}
	for i := 1; i < d.dim; i++ {
		// Upper bound: xi + t ~ U  =>  t ~ U - xi.
		if ub := d.At(i, 0); ub != Infinity {
			lim := int64(ub.Value())*scale - val(i)
			if iv.Unbounded || lim < iv.Hi || (lim == iv.Hi && ub.Strict() && !iv.HiStrict) {
				iv.Hi, iv.HiStrict, iv.Unbounded = lim, ub.Strict(), false
			}
		}
		// Lower bound: -(xi + t) ~ L  =>  t ≳ -L - xi.
		if lb := d.At(0, i); lb != Infinity {
			lim := -int64(lb.Value())*scale - val(i)
			if lim > iv.Lo || (lim == iv.Lo && lb.Strict() && !iv.LoStrict) {
				iv.Lo, iv.LoStrict = lim, lb.Strict()
			}
		}
	}
	if iv.Lo < 0 {
		iv.Lo, iv.LoStrict = 0, false
	}
	if !iv.Unbounded {
		if iv.Hi < iv.Lo {
			return Interval{}, false
		}
		if iv.Hi == iv.Lo && (iv.HiStrict || iv.LoStrict) {
			return Interval{}, false
		}
	}
	return iv, true
}

// ExtrapolateInPlace applies classic max-constant extrapolation (ExtraM)
// in place: bounds above max[i] become infinity and lower bounds below
// -max[j] are relaxed, guaranteeing a finite zone graph. max is indexed by
// clock (entry 0 is ignored). Extrapolation only relaxes, so d cannot
// become empty.
func (d *DBM) ExtrapolateInPlace(max []int) {
	changed := false
	for i := 1; i < d.dim; i++ {
		for j := 0; j < d.dim; j++ {
			if i == j {
				continue
			}
			b := d.At(i, j)
			if b != Infinity && b.Value() > max[i] {
				d.set(i, j, Infinity)
				changed = true
			}
		}
	}
	for j := 1; j < d.dim; j++ {
		for i := 0; i < d.dim; i++ {
			if i == j {
				continue
			}
			b := d.At(i, j)
			if b != Infinity && b.Value() < -max[j] {
				d.set(i, j, LT(-max[j]))
				changed = true
			}
		}
	}
	if changed {
		d.close()
	}
}

// Extrapolate returns a max-constant extrapolated copy of d (see
// ExtrapolateInPlace).
func (d *DBM) Extrapolate(max []int) *DBM {
	if d == nil {
		return nil
	}
	c := d.Clone()
	c.ExtrapolateInPlace(max)
	return c
}

// DelayableInterior returns the sub-zone of points that can let a positive
// amount of time pass while staying inside d (the upper time-facets are
// removed by making every finite upper bound strict). Points of d outside
// the result are time-blocked: delays immediately leave the zone.
func (d *DBM) DelayableInterior() *DBM {
	if d == nil {
		return nil
	}
	c := d.Clone()
	changed := false
	for i := 1; i < c.dim; i++ {
		b := c.At(i, 0)
		if b != Infinity && b.Weak() {
			c.set(i, 0, LT(b.Value()))
			changed = true
		} else if b != Infinity {
			// Already strict: the supremum is open, so every point below it
			// can still delay; nothing to tighten.
			continue
		}
	}
	if changed && !c.close() {
		c.Release()
		return nil
	}
	return c
}

// FNV-1a parameters for the 64-bit zone hash.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Hash returns a 64-bit FNV-1a hash of the canonical matrix. Because all
// exported operations keep DBMs closed, semantically equal zones hash
// equal, so zones can be interned and compared without building string
// keys. Hash(nil) is a fixed sentinel.
func (d *DBM) Hash() uint64 {
	if d == nil {
		return fnvOffset64
	}
	h := (fnvOffset64 ^ uint64(d.dim)) * fnvPrime64
	for _, b := range d.m {
		h = (h ^ uint64(uint32(b))) * fnvPrime64
	}
	return h
}

// Key returns a canonical map key for the zone.
func (d *DBM) Key() string {
	if d == nil {
		return "∅"
	}
	var sb strings.Builder
	sb.Grow(len(d.m) * 5)
	for _, b := range d.m {
		sb.WriteByte(byte(b))
		sb.WriteByte(byte(b >> 8))
		sb.WriteByte(byte(b >> 16))
		sb.WriteByte(byte(b >> 24))
	}
	return sb.String()
}

// String renders the non-trivial constraints, e.g. "x1<=3 & x1-x2<1".
func (d *DBM) String() string {
	if d == nil {
		return "false"
	}
	var parts []string
	name := func(i int) string { return fmt.Sprintf("x%d", i) }
	for i := 1; i < d.dim; i++ {
		lb, ub := d.At(0, i), d.At(i, 0)
		if lb != LEZero {
			op := ">="
			if lb.Strict() {
				op = ">"
			}
			parts = append(parts, fmt.Sprintf("%s%s%d", name(i), op, -lb.Value()))
		}
		if ub != Infinity {
			op := "<="
			if ub.Strict() {
				op = "<"
			}
			parts = append(parts, fmt.Sprintf("%s%s%d", name(i), op, ub.Value()))
		}
	}
	for i := 1; i < d.dim; i++ {
		for j := 1; j < d.dim; j++ {
			if i == j {
				continue
			}
			b := d.At(i, j)
			if b == Infinity {
				continue
			}
			// Skip bounds implied by the single-clock constraints.
			if Add(d.At(i, 0), d.At(0, j)) <= b {
				continue
			}
			op := "<="
			if b.Strict() {
				op = "<"
			}
			parts = append(parts, fmt.Sprintf("%s-%s%s%d", name(i), name(j), op, b.Value()))
		}
	}
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, " & ")
}
