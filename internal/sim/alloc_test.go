package sim

import (
	"testing"
	"time"
)

// TestEventQueueZeroAlloc pins the heap's no-allocation property: once
// the key/fn slices have grown to the working-set size, push and pop
// must recycle that capacity instead of allocating.  The million-node
// soak leans on this — the kernel heap turns over hundreds of millions
// of events per run.
func TestEventQueueZeroAlloc(t *testing.T) {
	var q eventQueue
	fn := func() {}
	seed := func(n int) {
		for i := 0; i < n; i++ {
			q.push(eventKey{time: time.Duration((i * 37) % 64), seq: uint64(i)}, fn)
		}
	}
	// Warm the slices to their steady-state capacity.
	seed(64)
	for q.len() > 0 {
		q.pop()
	}
	allocs := testing.AllocsPerRun(50, func() {
		seed(32)
		for q.len() > 0 {
			q.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("event queue push/pop allocated %.1f per cycle, want 0", allocs)
	}
}
