package game

// BuiltNodes reports how many of cs's nodes have their rows built and how
// many node builds ran; the two are equal when no node was built twice.
func (cs *CompiledStrategy) BuiltNodes() (ready, builds int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for i := range cs.nodes {
		if cs.nodes[i].ready.Load() {
			ready++
		}
	}
	return ready, cs.builds
}

// Reference returns the interpreted strategy of reference_test.go as a
// Consultant, so external tests can drive whole runs through it.
func Reference(st *Strategy) Consultant { return st }
