package game

import (
	"bytes"
	"sync"
	"testing"
)

// TestCompiledConcurrentFirstTouch lets 8 goroutines consult one fresh
// compiled strategy at every sampled point of every node, each starting
// at a different node, so first visits race (run it under -race). Every
// node must be built exactly once, and the lazily built table must encode
// to the bytes of an eagerly built copy revived through the wire format.
func TestCompiledConcurrentFirstTouch(t *testing.T) {
	for _, c := range compiledCases(t) {
		t.Run(c.name, func(t *testing.T) {
			lazy, err := c.st.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if d := lazy.CompileDuration(); d != 0 {
				t.Fatalf("CompileDuration %v before any consultation", d)
			}
			nn := c.st.NumNodes()
			const goroutines = 8
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := 0; k < nn; k++ {
						id := (k + g*nn/goroutines) % nn
						n := c.st.nodes[id]
						for _, p := range nodePoints(n, tick) {
							lazy.InGoal(id, p, tick)
							if s := lazy.StampAt(id, p, tick); s >= 0 {
								_, _ = lazy.MoveAt(id, p, tick, s+1)
							}
							for i := range n.succs {
								_, _, _ = lazy.FollowTransition(id, n.succs[i].trans.Chan, p, tick)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			ready, builds := lazy.BuiltNodes()
			if ready != builds {
				t.Fatalf("%d nodes ready after %d builds", ready, builds)
			}

			eager, err := c.st.Compile()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := Decode(c.st.System(), eager.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lazy.Encode(), dec.Encode()) {
				t.Fatal("lazily built tables encode differently from the eagerly built ones")
			}
			if ready, builds := lazy.BuiltNodes(); ready != nn || builds != nn {
				t.Fatalf("after Encode: %d of %d nodes ready, %d builds", ready, nn, builds)
			}
			if lazy.CompileDuration() <= 0 || dec.CompileDuration() != 0 {
				t.Fatalf("CompileDuration %v built, %v decoded", lazy.CompileDuration(), dec.CompileDuration())
			}
		})
	}
}

// TestCompiledConsultationAllocs checks that consulting a node whose rows
// are built allocates nothing: MoveAt, StampAt, InGoal and
// FollowTransition at an in-region point of a visited node.
func TestCompiledConsultationAllocs(t *testing.T) {
	for _, c := range compiledCases(t) {
		t.Run(c.name, func(t *testing.T) {
			cs, err := c.st.Compile()
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < c.st.NumNodes(); id++ {
				n := c.st.nodes[id]
				for _, p := range nodePoints(n, tick) {
					s := cs.StampAt(id, p, tick)
					if s < 0 || cs.InGoal(id, p, tick) {
						continue
					}
					if _, err := cs.MoveAt(id, p, tick, s+1); err != nil {
						continue
					}
					for i := range n.succs {
						ch := n.succs[i].trans.Chan
						if _, _, err := cs.FollowTransition(id, ch, p, tick); err != nil {
							continue
						}
						allocs := testing.AllocsPerRun(100, func() {
							cs.InGoal(id, p, tick)
							cs.StampAt(id, p, tick)
							_, _ = cs.MoveAt(id, p, tick, s+1)
							_, _, _ = cs.FollowTransition(id, ch, p, tick)
						})
						if allocs != 0 {
							t.Fatalf("node %d %v: %v allocations per consultation, want 0", id, p, allocs)
						}
						return
					}
				}
			}
			t.Fatal("no visited node with an enabled successor at an in-region point")
		})
	}
}
