package simnet

import "math"

// nodesPerCell is the locality grid's target occupancy: a cell holds
// about as many nodes as one 3f+1 = 4 primary tier.
const nodesPerCell = 4

// LocalityOrder returns every node in one locality order: a centre-out
// square spiral over a uniform grid laid across the nodes' bounding
// box, about nodesPerCell nodes to a cell, each cell's nodes in ID
// order.  Cells are ranked by ring — Chebyshev distance from the box
// centre — and each ring's perimeter is walked the same way round from
// its bottom-left corner (spiralRanks).  Nodes close in the order are
// close on the plane, so a run of consecutive entries is a
// well-connected group (paper §4.4.3's primary tier); and the order
// starts at the box centre, which under a uniform node cloud is the
// point of least mean latency to every node, so the first runs sit
// where clients reach them fastest.  The order is a pure function of
// the coordinates, built by one counting sort in O(n) with no draw from
// the kernel RNG.
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
	rank := spiralRanks(side)
	cell := make([]int32, count)
	starts := make([]int, side*side+1)
	for i := range cell {
		row, col := bin(n.ys[i], minY, maxY), bin(n.xs[i], minX, maxX)
		cell[i] = rank[row*side+col]
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

// spiralRanks returns each cell's position, indexed row*side+col, in a
// centre-out walk of a side×side grid.  In doubled cell coordinates,
// 2·col − (side−1) and 2·row − (side−1), the grid's centre is exact for
// odd and even side alike, and ring h holds the cells whose larger
// coordinate magnitude is h.  The rings are walked in order of h, each
// from its bottom-left corner: right along its bottom row, up its right
// column, left along its top row, down its left column.  The grid is
// square and centred on its own centre, so every ring lies whole inside
// it.  O(side²).
func spiralRanks(side int) []int32 {
	rank := make([]int32, side*side)
	next := int32(0)
	put := func(row, col int) {
		rank[row*side+col] = next
		next++
	}
	for h := (side - 1) % 2; h < side; h += 2 {
		lo, hi := (side-1-h)/2, (side-1+h)/2
		if lo == hi {
			put(lo, lo)
			continue
		}
		for col := lo; col < hi; col++ {
			put(lo, col)
		}
		for row := lo; row < hi; row++ {
			put(row, hi)
		}
		for col := hi; col > lo; col-- {
			put(hi, col)
		}
		for row := hi; row > lo; row-- {
			put(row, lo)
		}
	}
	return rank
}
