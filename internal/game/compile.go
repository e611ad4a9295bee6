// Strategy compilation and the compiled wire format.
//
// Compile validates a strategy and hands back tables whose rows are still
// empty. A node's rows are the decisions the interpreted reference of the
// package tests derives on the fly (see compiled.go for the row layout);
// buildNode enumerates them the first time a consultation reaches the
// node, by calling the reference's region constructors at one
// representative bound per stamp-prefix level, so the compiled zone
// decompositions are bit-identical to what the reference builds at
// consultation time. A test run visits a few nodes of the game graph, so
// most rows are never built; Encode and MaxConstant, which need the whole
// table, build the rest in id order.
//
// Encode/Decode give compiled strategies a canonical, versioned binary
// serialization so they are content-addressable artifacts: deterministic
// row order (nodes by id, successors and zones in construction order),
// fixed-width little-endian integers, and a trailing FNV-1a self-checksum.
// Decode revives a strategy against the same model (transitions are stored
// as global edge ids) without re-running any solver machinery. The format
// is specified in docs/WIRE.md; bump wireVersion on any layout change.

package game

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"tigatest/internal/dbm"
	"tigatest/internal/model"
	"tigatest/internal/symbolic"
	"tigatest/internal/tctl"
)

// Compile validates the strategy and returns its decision tables, whose
// rows are built per node on first consultation (see CompiledStrategy).
// The stamp-ascending check runs here over every node, so a solver
// invariant violation fails Compile and never a later consultation. The
// receiver is unchanged and stays valid: it is the source the rows are
// built from. Only reachability (and cooperative) strategies compile;
// safety strategies have no MoveAt consultation path.
func (st *Strategy) Compile() (*CompiledStrategy, error) {
	if st.formula.Objective == tctl.Safety {
		return nil, fmt.Errorf("game: %s is a safety purpose: only reachability strategies compile (safety strategies are consulted via SafeActions)", st.formula)
	}
	for _, n := range st.nodes {
		for i := 1; i < len(n.deltas); i++ {
			if n.deltas[i].stamp <= n.deltas[i-1].stamp {
				return nil, fmt.Errorf("game: node %d deltas not stamp-ascending (solver invariant violated)", n.id)
			}
		}
	}
	return &CompiledStrategy{
		sys:     st.sys,
		purpose: st.formula.String(),
		coop:    st.coop,
		dim:     st.sys.NumClocks(),
		nodes:   make([]compiledNode, len(st.nodes)),
		src:     st,
	}, nil
}

// node returns node id's rows, building them on the first visit. After
// that a consultation pays one atomic load here and allocates nothing.
func (cs *CompiledStrategy) node(id int) *compiledNode {
	if n := &cs.nodes[id]; n.ready.Load() {
		return n
	}
	return cs.build(id)
}

// build builds node id's rows under the build lock, unless a concurrent
// consultation built them first, and returns the node.
func (cs *CompiledStrategy) build(id int) *compiledNode {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if !cs.nodes[id].ready.Load() {
		t0 := time.Now()
		cs.buildNode(id)
		cs.buildNanos.Add(int64(time.Since(t0)))
	}
	return &cs.nodes[id]
}

// forceAll builds every node not built yet, in id order, under one lock
// and timed once: the whole table, as Encode and MaxConstant need it, at
// the cost of one eager pass.
func (cs *CompiledStrategy) forceAll() {
	if cs.complete.Load() {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.complete.Load() {
		return
	}
	t0 := time.Now()
	for id := range cs.nodes {
		if !cs.nodes[id].ready.Load() {
			cs.buildNode(id)
		}
	}
	cs.buildNanos.Add(int64(time.Since(t0)))
	cs.complete.Store(true)
}

// buildNode enumerates node id's rows from the source strategy, flattens
// them into probes and publishes the node. Called with cs.mu held.
func (cs *CompiledStrategy) buildNode(id int) {
	st := cs.src
	n := st.nodes[id]
	cn := &cs.nodes[id]
	cn.goal = n.goal
	cn.deltas = make([]compiledDelta, len(n.deltas))
	for i, d := range n.deltas {
		cn.deltas[i] = compiledDelta{stamp: d.stamp, fed: d.fed}
	}

	cn.succs = make([]compiledSucc, len(n.succs))
	var oppStamps []int
	for i := range n.succs {
		sc := &n.succs[i]
		target := st.nodes[sc.target]
		csc := &cn.succs[i]
		csc.trans = sc.trans
		csc.target = sc.target
		csc.ctrl = sc.trans.Kind == model.Controllable
		csc.usable = st.moveUsable(sc.trans)
		csc.stamps = make([]int, len(target.deltas))
		for j, d := range target.deltas {
			csc.stamps[j] = d.stamp
		}
		if csc.usable {
			csc.regions = make([]*dbm.Federation, len(csc.stamps)+1)
			for l := range csc.regions {
				csc.regions[l] = st.actionRegion(n, sc, levelBound(csc.stamps, l))
			}
		}
		if !csc.ctrl {
			oppStamps = append(oppStamps, csc.stamps...)
		}
	}

	cn.forcedThresholds = sortedUnique(oppStamps)
	cn.forcedRegions = make([]*dbm.Federation, len(cn.forcedThresholds)+1)
	for l := range cn.forcedRegions {
		cn.forcedRegions[l] = st.forcedRegion(n, levelBound(cn.forcedThresholds, l))
	}
	cs.flatten(cn)
	cs.builds++
	cn.ready.Store(true)
}

// flatten turns every row federation of n into its membership probe (the
// hot-path representation) and raises the tables' largest constant to
// n's; run once per node with cs.mu held, or by Decode before the
// strategy is shared.
func (cs *CompiledStrategy) flatten(n *compiledNode) {
	n.goalPr = cs.probeOf(n.goal)
	for d := range n.deltas {
		n.deltas[d].pr = cs.probeOf(n.deltas[d].fed)
	}
	for j := range n.succs {
		sc := &n.succs[j]
		for _, e := range sc.trans.Edges {
			for _, c := range e.Guard.Clocks {
				cs.maxConst = max(cs.maxConst, abs(c.Bound.Value()))
			}
		}
		if !sc.usable {
			continue
		}
		sc.prs = make([]probe, len(sc.regions))
		for k := range sc.regions {
			sc.prs[k] = cs.probeOf(sc.regions[k])
		}
	}
	n.forcedPrs = make([]probe, len(n.forcedRegions))
	for k := range n.forcedRegions {
		n.forcedPrs[k] = cs.probeOf(n.forcedRegions[k])
	}
}

// probeOf flattens f and raises the tables' largest constant to f's.
func (cs *CompiledStrategy) probeOf(f *dbm.Federation) probe {
	p := makeProbe(f)
	for _, c := range p.cons {
		cs.maxConst = max(cs.maxConst, abs(c.b.Value()))
	}
	return p
}

func abs(x int) int { return max(x, -x) }

// levelBound returns a bound with exactly l of the ascending stamps
// strictly below it: the representative at which the interpreter's
// bound-dependent region constructors are evaluated for prefix level l.
// Stamps are >= 1, so bound 1 realizes the empty prefix.
func levelBound(stamps []int, l int) int {
	if l == 0 {
		return 1
	}
	return stamps[l-1] + 1
}

// sortedUnique sorts the stamps ascending and drops duplicates, in place.
func sortedUnique(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	// Insertion sort: opponent stamp lists are tiny and mostly sorted.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// CompiledStrategy returns the result's strategy compiled to decision
// tables, compiling at most once per Result: cached results shared across
// sessions, campaigns and matrix cells all consult one compiled artifact.
// Unwinnable results and safety strategies return an error.
func (r *Result) CompiledStrategy() (*CompiledStrategy, error) {
	r.compileOnce.Do(func() {
		if r.Strategy == nil {
			r.compileErr = fmt.Errorf("game: no strategy to compile (purpose not winnable)")
			return
		}
		r.compiled, r.compileErr = r.Strategy.Compile()
	})
	return r.compiled, r.compileErr
}

// --- wire format --------------------------------------------------------

// wireMagic opens every encoded compiled strategy.
var wireMagic = [4]byte{'T', 'G', 'C', 'S'}

// wireVersion is the serialization layout version (see docs/WIRE.md).
const wireVersion = 1

// FNV-1a parameters, matching the zone hash in package dbm.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvSum(data []byte) uint64 {
	h := fnvOffset64
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// encodeCache caches the canonical serialization of a compiled strategy.
type encodeCache struct {
	once sync.Once
	data []byte
	sum  uint64
}

// Encode returns the canonical, versioned binary serialization of the
// compiled strategy. The encoding is deterministic — equal strategies
// encode to equal bytes — and ends with an FNV-1a self-checksum. The
// returned slice is cached and shared: callers must not modify it.
func (cs *CompiledStrategy) Encode() []byte {
	cs.enc.once.Do(func() {
		cs.forceAll()
		w := &wbuf{}
		w.raw(wireMagic[:])
		w.u32(wireVersion)
		w.u32(uint32(cs.dim))
		w.bool(cs.coop)
		w.str(cs.purpose)
		w.u32(uint32(len(cs.nodes)))
		for i := range cs.nodes {
			n := &cs.nodes[i]
			w.fed(cs.dim, n.goal)
			w.u32(uint32(len(n.deltas)))
			for _, d := range n.deltas {
				w.u32(uint32(d.stamp))
				w.fed(cs.dim, d.fed)
			}
			w.u32(uint32(len(n.succs)))
			for j := range n.succs {
				sc := &n.succs[j]
				w.u32(uint32(int32(sc.trans.Chan)))
				w.u8(byte(sc.trans.Kind))
				w.u32(uint32(sc.target))
				w.u32(uint32(len(sc.trans.Edges)))
				for _, e := range sc.trans.Edges {
					w.u32(uint32(e.ID))
				}
				w.u32(uint32(len(sc.stamps)))
				for _, s := range sc.stamps {
					w.u32(uint32(s))
				}
				if sc.usable {
					for _, r := range sc.regions {
						w.fed(cs.dim, r)
					}
				}
			}
			w.u32(uint32(len(n.forcedThresholds)))
			for _, t := range n.forcedThresholds {
				w.u32(uint32(t))
			}
			for _, r := range n.forcedRegions {
				w.fed(cs.dim, r)
			}
		}
		cs.enc.sum = fnvSum(w.b)
		w.u64(cs.enc.sum)
		cs.enc.data = w.b
	})
	return cs.enc.data
}

// Checksum returns the FNV-1a self-checksum of the canonical encoding.
func (cs *CompiledStrategy) Checksum() uint64 {
	cs.Encode()
	return cs.enc.sum
}

// Decode revives a compiled strategy from its canonical serialization
// against the model it was compiled for (transitions are stored as global
// edge ids). The checksum, version and clock dimension are verified; a
// decoded strategy re-encodes to the identical bytes and is
// decision-equivalent to the original.
func Decode(sys *model.System, data []byte) (*CompiledStrategy, error) {
	if len(data) < len(wireMagic)+4+8 {
		return nil, fmt.Errorf("game: compiled strategy truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != string(wireMagic[:]) {
		return nil, fmt.Errorf("game: bad compiled-strategy magic %q", data[:4])
	}
	payload, tail := data[:len(data)-8], data[len(data)-8:]
	sum := binary.LittleEndian.Uint64(tail)
	if got := fnvSum(payload); got != sum {
		return nil, fmt.Errorf("game: compiled strategy checksum mismatch (stored %016x, computed %016x)", sum, got)
	}

	edges := make(map[int]*model.Edge)
	for _, p := range sys.Procs {
		for ei := range p.Edges {
			e := &p.Edges[ei]
			edges[e.ID] = e
		}
	}

	r := &rbuf{b: payload[4:]}
	if v := r.u32(); v != wireVersion && r.err == nil {
		return nil, fmt.Errorf("game: unsupported compiled-strategy version %d (want %d)", v, wireVersion)
	}
	cs := &CompiledStrategy{sys: sys}
	cs.dim = int(r.u32())
	if r.err == nil && cs.dim != sys.NumClocks() {
		return nil, fmt.Errorf("game: compiled strategy has %d clocks, model has %d", cs.dim, sys.NumClocks())
	}
	cs.coop = r.bool()
	cs.purpose = r.str()
	cs.nodes = make([]compiledNode, r.count(20))
	if r.err != nil {
		return nil, r.err
	}
	for i := range cs.nodes {
		n := &cs.nodes[i]
		n.goal = r.fed(cs.dim)
		n.deltas = make([]compiledDelta, r.count(8))
		for d := range n.deltas {
			n.deltas[d].stamp = int(r.u32())
			n.deltas[d].fed = r.fed(cs.dim)
		}
		n.succs = make([]compiledSucc, r.count(17))
		trans := make([]symbolic.Transition, len(n.succs))
		for j := range n.succs {
			sc := &n.succs[j]
			chanIdx := int(int32(r.u32()))
			kind := model.Kind(r.u8())
			sc.target = int(r.u32())
			es := make([]*model.Edge, r.count(4))
			for k := range es {
				id := int(r.u32())
				e, ok := edges[id]
				if r.err == nil && !ok {
					return nil, fmt.Errorf("game: compiled strategy references unknown edge %d (model mismatch?)", id)
				}
				es[k] = e
			}
			if r.err != nil {
				return nil, r.err
			}
			label := ""
			if chanIdx >= 0 {
				if chanIdx >= len(sys.Channels) {
					return nil, fmt.Errorf("game: compiled strategy references unknown channel %d", chanIdx)
				}
				label = sys.Channels[chanIdx].Name
			} else if len(es) == 1 {
				label = fmt.Sprintf("tau(%s)", sys.EdgeLabel(es[0]))
			}
			trans[j] = symbolic.Transition{Kind: kind, Chan: chanIdx, Edges: es, Label: label}
			sc.trans = &trans[j]
			sc.ctrl = kind == model.Controllable
			sc.usable = sc.ctrl || cs.coop
			sc.stamps = make([]int, r.count(4))
			for k := range sc.stamps {
				sc.stamps[k] = int(r.u32())
			}
			if sc.usable {
				sc.regions = make([]*dbm.Federation, len(sc.stamps)+1)
				for k := range sc.regions {
					sc.regions[k] = r.fed(cs.dim)
				}
			}
		}
		n.forcedThresholds = make([]int, r.count(4))
		for k := range n.forcedThresholds {
			n.forcedThresholds[k] = int(r.u32())
		}
		n.forcedRegions = make([]*dbm.Federation, len(n.forcedThresholds)+1)
		for k := range n.forcedRegions {
			n.forcedRegions[k] = r.fed(cs.dim)
		}
		if r.err != nil {
			return nil, r.err
		}
		cs.flatten(n)
		n.ready.Store(true)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("game: %d trailing bytes after compiled strategy", len(r.b))
	}
	cs.complete.Store(true)
	return cs, nil
}

// wbuf is the little-endian append buffer of Encode.
type wbuf struct{ b []byte }

func (w *wbuf) raw(p []byte) { w.b = append(w.b, p...) }
func (w *wbuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// fed writes a federation as its zone count followed by each zone's
// row-major dim*dim bound matrix, preserving zone order (part of the
// decision contract: wait-tick tie-breaks scan zones in order).
func (w *wbuf) fed(dim int, f *dbm.Federation) {
	zs := f.Zones()
	w.u32(uint32(len(zs)))
	for _, z := range zs {
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				w.u32(uint32(int32(z.At(i, j))))
			}
		}
	}
}

// rbuf is the consuming little-endian reader of Decode. The first
// malformed read latches err and zero-fills every later read, so decoding
// loops stay branch-light and the caller checks err at section ends.
type rbuf struct {
	b   []byte
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("game: compiled strategy truncated")
	}
}

func (r *rbuf) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// count reads a u32 element count and validates it against the bytes
// remaining, given the minimum encoded size of one element: a corrupted
// (or adversarial, checksum-resealed) stream must not make Decode allocate
// unboundedly ahead of data that cannot possibly be present.
func (r *rbuf) count(minElemBytes int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n > len(r.b)/minElemBytes {
		r.fail()
		return 0
	}
	return n
}

func (r *rbuf) bool() bool { return r.u8() != 0 }

func (r *rbuf) str() string {
	n := int(r.u32())
	if r.err != nil || len(r.b) < n {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *rbuf) fed(dim int) *dbm.Federation {
	nz := int(r.u32())
	f := dbm.NewFederation(dim)
	if r.err != nil || len(r.b) < nz*4*dim*dim {
		r.fail()
		return f
	}
	m := make([]dbm.Bound, dim*dim)
	for z := 0; z < nz; z++ {
		for i := range m {
			m[i] = dbm.Bound(int32(r.u32()))
		}
		if r.err != nil {
			return f
		}
		f.AppendZone(dbm.FromBounds(dim, m))
	}
	return f
}
