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
