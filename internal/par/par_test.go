package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDoCoversEveryIndexOnce checks the hand-out: every index in
// [0, n) runs exactly once for a grid of (procs, n).
func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{0, 1, 2, 3, 4, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]atomic.Int32, n)
			do(procs, n, func(i int) {
				if i < 0 || i >= n {
					t.Errorf("procs=%d n=%d: index %d out of range", procs, n, i)
					return
				}
				hits[i].Add(1)
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("procs=%d n=%d: index %d visited %d times", procs, n, i, got)
				}
			}
		}
	}
}

// TestChunkBoundariesIgnoreProcs: the unit of hand-out is one index at
// every width, so the set of fn calls a run makes — and so any work
// split it implies — is the same at procs 1, 2, 3, 4 and 8.
func TestChunkBoundariesIgnoreProcs(t *testing.T) {
	calls := func(procs, n int) map[int]int {
		out := make(chan int, n)
		do(procs, n, func(i int) { out <- i })
		close(out)
		set := make(map[int]int)
		for i := range out {
			set[i]++
		}
		return set
	}
	for _, n := range []int{1, 7, 64, 65, 1000} {
		s1 := calls(1, n)
		for _, procs := range []int{2, 3, 4, 8} {
			sp := calls(procs, n)
			if len(sp) != len(s1) {
				t.Fatalf("n=%d: %d calls at procs=1, %d at procs=%d", n, len(s1), len(sp), procs)
			}
			for i, c := range sp {
				if s1[i] != c {
					t.Fatalf("n=%d: index %d called %d times at procs=%d, %d at procs=1", n, i, c, procs, s1[i])
				}
			}
		}
	}
}

// TestSerialFallback: with one worker (or one index) fn runs on the
// calling goroutine, in index order.
func TestSerialFallback(t *testing.T) {
	for _, tc := range []struct{ procs, n int }{{1, 100}, {4, 1}} {
		var order []int
		do(tc.procs, tc.n, func(i int) { order = append(order, i) })
		if len(order) != tc.n {
			t.Fatalf("procs=%d n=%d: %d calls", tc.procs, tc.n, len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("procs=%d n=%d: call %d got index %d", tc.procs, tc.n, i, got)
			}
		}
	}
}

// TestPanicPropagation: a panic in a worker surfaces on the caller as
// a *WorkerPanic carrying the original value, at every pool width.
func TestPanicPropagation(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("procs=%d: panic did not propagate", procs)
				}
				if procs == 1 {
					// Serial fallback re-panics untouched.
					if r.(string) != "boom" {
						t.Fatalf("procs=%d: recovered %v", procs, r)
					}
					return
				}
				wp, ok := r.(*WorkerPanic)
				if !ok {
					t.Fatalf("procs=%d: recovered %T, want *WorkerPanic", procs, r)
				}
				if wp.Value != "boom" {
					t.Fatalf("procs=%d: wrapped value %v", procs, wp.Value)
				}
				if len(wp.Stack) == 0 || wp.Error() == "" {
					t.Fatalf("procs=%d: worker stack not captured", procs)
				}
			}()
			do(procs, 100, func(i int) {
				if i == 50 {
					panic("boom")
				}
			})
		}()
	}
}

// TestMapOrdered: results land at their own index whatever the
// interleaving, so the slice is the same at every GOMAXPROCS.
func TestMapOrdered(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := Map(1000, func(i int) int { return i * i })
			for i, v := range got {
				if v != i*i {
					t.Fatalf("procs=%d: out[%d] = %d", procs, i, v)
				}
			}
		}()
	}
}

// TestProcsFloor: Procs never reports less than one worker.
func TestProcsFloor(t *testing.T) {
	if Procs() < 1 {
		t.Fatalf("Procs() = %d", Procs())
	}
}

// TestDoWideIgnoresGOMAXPROCS: DoWide's width is the caller's, not the
// scheduler's — with one proc, four indices that each wait for the other
// three only finish if four workers really exist.  (A serial fallback
// here would hang, and the test timeout would say so.)
func TestDoWideIgnoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var barrier sync.WaitGroup
	barrier.Add(4)
	hits := make([]int, 4)
	DoWide(4, 4, func(i int) {
		hits[i]++
		barrier.Done()
		barrier.Wait()
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}
