package introspect

import "oceanstore/internal/guid"

// EdgeWeight reports the accumulated co-access weight between two
// objects.
func (c *ClusterRecognizer) EdgeWeight(a, b guid.GUID) float64 {
	if b.Compare(a) < 0 {
		a, b = b, a
	}
	return c.weight[a][b]
}
