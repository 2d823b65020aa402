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
			q.push(eventKey{time: time.Duration((i * 37) % 64), seq: uint64(i)}, fn, noTimer)
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

// TestTimerZeroAlloc: arming and stopping timeouts — five per write on
// the commit path — allocates nothing once the slot table and its free
// list have grown to the working set.
func TestTimerZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	var ts [32]Timer
	cycle := func() {
		for i := range ts {
			ts[i] = k.After(time.Duration((i*37)%64), fn)
		}
		for i := range ts {
			if !ts[i].Stop() {
				t.Fatal("Stop of a queued timer failed")
			}
		}
	}
	cycle() // warm the slices
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("After+Stop allocated %.1f per cycle, want 0", allocs)
	}
}
