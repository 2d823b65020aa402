package simnet

import (
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
