package simnet

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"oceanstore/internal/sim"
)

// TestLocalityOrderIsAPermutationOfTheCoordinates: the order holds
// every node exactly once; two networks whose nodes sit at the same
// coordinates, built under different kernel seeds, get the same order;
// and building it draws nothing from the kernel RNG.
func TestLocalityOrderIsAPermutationOfTheCoordinates(t *testing.T) {
	k := sim.NewKernel(3)
	net := New(k, Config{})
	net.AddRandomNodes(1000, 100, 4)
	order := net.LocalityOrder()

	seen := make([]bool, net.Len())
	for _, id := range order {
		if seen[id] {
			t.Fatalf("node %d appears twice", id)
		}
		seen[id] = true
	}
	if len(order) != net.Len() {
		t.Fatalf("order holds %d of %d nodes", len(order), net.Len())
	}

	twin := New(sim.NewKernel(99), Config{})
	for i := range net.xs {
		twin.AddNode(net.xs[i], net.ys[i])
	}
	if !slices.Equal(twin.LocalityOrder(), order) {
		t.Fatal("the same coordinates under another seed gave another order")
	}

	// Both kernels have drawn the same values so far; the order built
	// above must not have advanced k's generator.
	ref := sim.NewKernel(3)
	New(ref, Config{}).AddRandomNodes(1000, 100, 4)
	if got, want := k.Rand().Int63(), ref.Rand().Int63(); got != want {
		t.Fatalf("kernel RNG moved: next draw %d, want %d", got, want)
	}
}

// TestLocalityOrderWalksNeighbours: consecutive entries are close on
// the plane.  On a 100-unit square of 10 000 nodes the grid's cells are
// 2 units wide, so a step of the walk stays within a few units.
func TestLocalityOrderWalksNeighbours(t *testing.T) {
	net := New(sim.NewKernel(1), Config{})
	net.AddRandomNodes(10000, 100, 0)
	order := net.LocalityOrder()
	steps := make([]float64, len(order)-1)
	for i := range steps {
		steps[i] = net.Distance(order[i], order[i+1])
	}
	slices.Sort(steps)
	if median := steps[len(steps)/2]; median > 2.5 {
		t.Fatalf("median step %.2f units", median)
	}
}

// TestLocalityOrderDegenerateCoordinates: nodes that all share one
// point come out in ID order, and an empty network has no order.
func TestLocalityOrderDegenerateCoordinates(t *testing.T) {
	_, net := uniformNet(t, 5, 0)
	if got := net.LocalityOrder(); !slices.Equal(got, []NodeID{0, 1, 2, 3, 4}) {
		t.Fatalf("order %v", got)
	}
	if got := New(sim.NewKernel(1), Config{}).LocalityOrder(); got != nil {
		t.Fatalf("empty network gave %v", got)
	}
}

// TestLocalityOrderStartsAtTheCentre: on 10 000 uniform nodes the first
// quarter of the order lies within the square of a quarter of the
// box's area around the box centre — the disc of the Chebyshev metric
// the spiral's rings are cut by — widened by one cell diagonal, and
// the mean distance from the centre rises from each quarter of the
// order to the next.  The serpentine this order replaced put its first
// quarter in the bottom quarter of the plane.
func TestLocalityOrderStartsAtTheCentre(t *testing.T) {
	net := New(sim.NewKernel(1), Config{})
	net.AddRandomNodes(10000, 100, 0)
	order := net.LocalityOrder()
	minX, maxX := slices.Min(net.xs), slices.Max(net.xs)
	minY, maxY := slices.Min(net.ys), slices.Max(net.ys)
	cx, cy := (minX+maxX)/2, (minY+maxY)/2
	side := math.Round(math.Sqrt(float64(len(order)) / nodesPerCell))
	diag := math.Hypot((maxX-minX)/side, (maxY-minY)/side)
	quarter := len(order) / 4
	for _, id := range order[:quarter] {
		if dx, dy := math.Abs(net.xs[id]-cx), math.Abs(net.ys[id]-cy); dx > (maxX-minX)/4+diag || dy > (maxY-minY)/4+diag {
			t.Fatalf("node %d of the first quarter is %.1f, %.1f units from the centre", id, dx, dy)
		}
	}
	prev := 0.0
	for q := range 4 {
		sum := 0.0
		for _, id := range order[q*quarter : (q+1)*quarter] {
			sum += math.Hypot(net.xs[id]-cx, net.ys[id]-cy)
		}
		mean := sum / float64(quarter)
		if mean <= prev {
			t.Fatalf("quarter %d: mean distance from the centre %.1f, not above the previous quarter's %.1f", q, mean, prev)
		}
		prev = mean
	}
}

// TestSpiralRanksWalkRings: for odd and even sides the ranks are a
// permutation of the cells, they never step inward by a ring, and
// every step stays beside the last cell except the one step from a
// ring's last cell to the next ring's first corner.
func TestSpiralRanksWalkRings(t *testing.T) {
	for side := 1; side <= 7; side++ {
		rank := spiralRanks(side)
		at := make([][2]int, len(rank))
		seen := make([]bool, len(rank))
		for c, r := range rank {
			if seen[r] {
				t.Fatalf("side %d: rank %d twice", side, r)
			}
			seen[r] = true
			at[r] = [2]int{c / side, c % side}
		}
		ring := func(p [2]int) int {
			return max(abs(2*p[0]-(side-1)), abs(2*p[1]-(side-1)))
		}
		for r := 1; r < len(at); r++ {
			a, b := at[r-1], at[r]
			step := max(abs(a[0]-b[0]), abs(a[1]-b[1]))
			switch {
			case ring(b) < ring(a):
				t.Fatalf("side %d: rank %d steps inward from %v to %v", side, r, a, b)
			case ring(b) == ring(a) && (step != 1 || a[0] != b[0] && a[1] != b[1]):
				t.Fatalf("side %d: rank %d jumps from %v to %v within a ring", side, r, a, b)
			case ring(b) > ring(a) && step > 2:
				t.Fatalf("side %d: rank %d jumps from %v to %v between rings", side, r, a, b)
			}
		}
	}
}

func abs(v int) int { return max(v, -v) }

var orderSink []NodeID

// BenchmarkLocalityOrder measures building the order, rank table
// included, at 100k nodes (scale-100k's world) and 1M nodes (the
// million-node soak's).
func BenchmarkLocalityOrder(b *testing.B) {
	for _, nodes := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			net := New(sim.NewKernel(1), Config{})
			net.AddRandomNodes(nodes, 100, 0)
			b.ResetTimer()
			for range b.N {
				orderSink = net.LocalityOrder()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
		})
	}
}
