package game

import (
	"testing"
)

// BenchmarkMoveAt measures one strategy consultation, compiled (per-node
// decision tables, pure point-in-zone lookups) versus interpreted (regions
// derived on the fly with PredThroughEdge and federation subtraction), over
// the same pool of in-region (node, valuation, bound) queries on every
// shipped model × game mode. CI archives the digest as BENCH_strategy.json
// and enforces the compiled=on speedup floor over the compiled=off baseline
// (cmd/benchjson's compiled family); the consults/s metric is the absolute
// consultation throughput. The compiled tables are fully built (Encode)
// before timing, so building a node on its first visit stays out of the
// pair: the floor measures consultation alone.
func BenchmarkMoveAt(b *testing.B) {
	type query struct {
		id    int
		p     []int64
		bound int
	}
	for _, c := range compiledCases(b) {
		var queries []query
		for id := 0; id < c.st.NumNodes(); id++ {
			for _, p := range nodePoints(c.st.nodes[id], tick) {
				// Goal points short-circuit both consultants on the same
				// single membership test — no decision derivation happens, so
				// they measure nothing. The query pool is the decision
				// surface: winning non-goal points, where the interpreter
				// derives action/forced regions and the tables just look up.
				if c.st.InGoal(id, p, tick) {
					continue
				}
				if s := c.st.StampAt(id, p, tick); s >= 0 {
					queries = append(queries, query{id, p, s + 1})
				}
			}
		}
		if len(queries) == 0 {
			b.Fatalf("%s: no in-region queries", c.name)
		}
		c.cs.Encode()
		for _, variant := range []struct {
			mode string
			con  Consultant
		}{{"off", c.st}, {"on", c.cs}} {
			b.Run(c.name+"/compiled="+variant.mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q := &queries[i%len(queries)]
					// Errors are part of the decision surface (pinned equal by
					// the differential test); the bench just drives the path.
					_, _ = variant.con.MoveAt(q.id, q.p, tick, q.bound)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "consults/s")
			})
		}
	}
}
