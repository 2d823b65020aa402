package simnet

import "math"

// nodesPerCell is the locality grid's target occupancy: a cell holds
// about as many nodes as one 3f+1 = 4 primary tier.
const nodesPerCell = 4

// LocalityOrder returns every node in one locality order: a serpentine
// walk over a uniform grid laid across the nodes' bounding box, about
// nodesPerCell nodes to a cell — even rows left to right, odd rows
// right to left, each cell's nodes in ID order.  Nodes close in the
// order are close on the plane, so a run of consecutive entries is a
// well-connected group (paper §4.4.3's primary tier).  The order is a
// pure function of the coordinates, built by one counting sort in O(n)
// with no draw from the kernel RNG.
func (n *Network) LocalityOrder() []NodeID {
	count := len(n.xs)
	if count == 0 {
		return nil
	}
	minX, maxX := n.xs[0], n.xs[0]
	minY, maxY := n.ys[0], n.ys[0]
	for i := 1; i < count; i++ {
		minX, maxX = min(minX, n.xs[i]), max(maxX, n.xs[i])
		minY, maxY = min(minY, n.ys[i]), max(maxY, n.ys[i])
	}
	side := max(1, int(math.Round(math.Sqrt(float64(count)/nodesPerCell))))
	// bin maps a coordinate onto one of side columns (or rows).
	bin := func(v, lo, hi float64) int {
		if hi <= lo {
			return 0
		}
		return min(side-1, int((v-lo)/(hi-lo)*float64(side)))
	}
	cell := make([]int32, count)
	starts := make([]int, side*side+1)
	for i := range cell {
		row, col := bin(n.ys[i], minY, maxY), bin(n.xs[i], minX, maxX)
		if row%2 == 1 {
			col = side - 1 - col
		}
		cell[i] = int32(row*side + col)
		starts[cell[i]+1]++
	}
	for c := 1; c < len(starts); c++ {
		starts[c] += starts[c-1]
	}
	order := make([]NodeID, count)
	for i, c := range cell {
		order[starts[c]] = NodeID(i)
		starts[c]++
	}
	return order
}
