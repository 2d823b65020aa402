package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDoCoversEveryIndexOnce checks the partition: every index in
// [0, n) is visited exactly once for a grid of (procs, n, grain).
func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 4, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, grain := range []int{0, 1, 3, 64, 2000} {
				hits := make([]atomic.Int32, n)
				doProcs(procs, n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("procs=%d n=%d grain=%d: bad span [%d,%d)", procs, n, grain, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("procs=%d n=%d grain=%d: index %d visited %d times", procs, n, grain, i, got)
					}
				}
			}
		}
	}
}

// TestChunkBoundariesIgnoreProcs pins the determinism contract: the
// set of (lo, hi) spans depends only on (n, grain), not on the worker
// count.
func TestChunkBoundariesIgnoreProcs(t *testing.T) {
	spans := func(procs, n, grain int) map[string]bool {
		out := make(chan string, n+1)
		doProcs(procs, n, grain, func(lo, hi int) { out <- fmt.Sprintf("%d:%d", lo, hi) })
		close(out)
		set := make(map[string]bool)
		for s := range out {
			set[s] = true
		}
		return set
	}
	for _, tc := range []struct{ n, grain int }{{100, 7}, {64, 64}, {65, 64}, {1000, 1}} {
		// procs=1 runs fn(0,n) inline — the serial fallback is the one
		// permitted difference, so compare parallel widths to each other.
		s2 := spans(2, tc.n, tc.grain)
		for _, procs := range []int{3, 4, 8} {
			sp := spans(procs, tc.n, tc.grain)
			if len(sp) != len(s2) {
				t.Fatalf("n=%d grain=%d: %d spans at procs=2, %d at procs=%d", tc.n, tc.grain, len(s2), len(sp), procs)
			}
			for s := range sp {
				if !s2[s] {
					t.Fatalf("n=%d grain=%d: span %s at procs=%d not present at procs=2", tc.n, tc.grain, s, procs)
				}
			}
		}
	}
}

// TestSerialFallback: with one proc (or one chunk) fn must be called
// exactly once as fn(0, n) on the calling goroutine.
func TestSerialFallback(t *testing.T) {
	for _, tc := range []struct{ procs, n, grain int }{{1, 100, 3}, {4, 5, 10}} {
		calls := 0
		doProcs(tc.procs, tc.n, tc.grain, func(lo, hi int) {
			calls++
			if lo != 0 || hi != tc.n {
				t.Fatalf("procs=%d n=%d grain=%d: serial fallback got [%d,%d)", tc.procs, tc.n, tc.grain, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("procs=%d n=%d grain=%d: %d calls, want 1", tc.procs, tc.n, tc.grain, calls)
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
			doProcs(procs, 100, 1, func(lo, hi int) {
				if lo <= 50 && 50 < hi {
					panic("boom")
				}
			})
		}()
	}
}

// TestMapOrdered: results land at their own index whatever the
// interleaving.
func TestMapOrdered(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	got := Map(1000, 3, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestMapErrFirstIndexWins: the reported error is the lowest-index
// one, not whichever worker lost the race.
func TestMapErrFirstIndexWins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e3, e7 := errors.New("e3"), errors.New("e7")
	_, err := MapErr(10, 1, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, e3
		case 7:
			return 0, e7
		}
		return i, nil
	})
	if err != e3 {
		t.Fatalf("got %v, want e3", err)
	}
	out, err := MapErr(10, 1, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 10 || out[9] != 9 {
		t.Fatalf("clean MapErr: out=%v err=%v", out, err)
	}
}

// TestProcsFloor: Procs never reports less than one worker.
func TestProcsFloor(t *testing.T) {
	if Procs() < 1 {
		t.Fatalf("Procs() = %d", Procs())
	}
}

// TestDoWideIgnoresGOMAXPROCS: DoWide's width is the caller's, not the
// scheduler's — with one proc, four chunks that each wait for the other
// three only finish if four workers really exist.  (A serial fallback
// here would hang, and the test timeout would say so.)
func TestDoWideIgnoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var barrier sync.WaitGroup
	barrier.Add(4)
	hits := make([]int, 4)
	DoWide(4, 4, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
		barrier.Done()
		barrier.Wait()
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}
