package plaxton

// PointerCount returns the total pointers stored at node idx, a state
// diagnostic.
func (m *Mesh) PointerCount(idx int) int {
	c := 0
	for _, ps := range m.nodes[idx].pointers {
		c += len(ps)
	}
	return c
}
