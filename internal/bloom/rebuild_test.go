package bloom

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"oceanstore/internal/guid"
)

// torus builds a side×side 4-neighbour torus adjacency, the shape the
// benchmarks use.
func torus(side int) [][]int {
	adj := make([][]int, side*side)
	at := func(x, y int) int { return ((y+side)%side)*side + (x+side)%side }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			adj[at(x, y)] = []int{at(x+1, y), at(x-1, y), at(x, y+1), at(x, y-1)}
		}
	}
	return adj
}

func placedLocator(adj [][]int, seed int64) *Locator {
	r := rand.New(rand.NewSource(seed))
	loc := NewLocator(adj, 3, 2048, 4)
	for i := 0; i < 200; i++ {
		loc.Place(r.Intn(len(adj)), guid.Random(r))
	}
	return loc
}

// TestConcurrentRebuildRace: the scratch bank is shared; overlapping
// Rebuild calls must serialise on the mutex rather than interleave.
// Run under -race; afterwards the filters must equal a clean rebuild.
func TestConcurrentRebuildRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	adj := torus(8)
	loc := placedLocator(adj, 7)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loc.Rebuild()
		}()
	}
	wg.Wait()
	want := placedLocator(adj, 7)
	want.Rebuild()
	for u := range adj {
		for _, v := range adj[u] {
			for d := 0; d < 3; d++ {
				if !loc.edge[u][v].Layer(d).Equal(want.edge[u][v].Layer(d)) {
					t.Fatalf("edge %d->%d layer %d corrupted by concurrent rebuilds", u, v, d)
				}
			}
		}
	}
}
