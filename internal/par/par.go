// Package par is a small deterministic fork-join utility: a bounded
// worker pool over contiguous index ranges, with ordered result
// collection and panic propagation.
//
// Determinism contract.  Do partitions [0, n) into fixed contiguous
// chunks whose boundaries depend only on (n, grain) — never on the
// number of workers or on scheduling.  Callers write only to the slots
// of their own chunk, and any reduction happens in index order after
// Do returns.  Partitioned writes + ordered merge means a parallel run
// produces byte-identical results to the serial one, which is what
// lets the golden-hash determinism tests pass with parallelism on.
//
// The worker budget is GOMAXPROCS at call time, so `go test -cpu
// 1,2,4` sweeps the pool width and procs=1 takes the serial fallback
// (no goroutines, no channels — zero overhead over a plain loop).
//
// Start/Task.Wait (task.go) is the same contract stretched over time:
// one leaf computation forked now and joined when its result is first
// needed, with the caller working in between.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Procs returns the current worker budget: GOMAXPROCS, at least 1.
func Procs() int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return p
	}
	return 1
}

// WorkerPanic wraps a panic raised inside a pool worker so it can be
// re-thrown on the caller's goroutine without losing the worker's
// stack.  Value is the original panic value.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker panic: %v\n%s", p.Value, p.Stack)
}

// Do runs fn over [0, n) split into contiguous chunks of about grain
// indices, on up to Procs() workers.  fn(lo, hi) must touch only state
// owned by indices [lo, hi).  Chunk boundaries depend only on (n,
// grain); with one proc (or one chunk) fn runs inline as fn(0, n).
// A panic in any worker is re-thrown here wrapped in *WorkerPanic;
// remaining chunks still complete first, so partial state is never
// observed mid-write by the caller.
func Do(n, grain int, fn func(lo, hi int)) {
	doProcs(Procs(), n, grain, fn)
}

// DoWide is Do on exactly width workers whatever GOMAXPROCS says — for
// fan-outs whose workers block in the kernel (an fsync per chunk)
// rather than burn CPU, where the useful width is the devices' queue
// depth, not the core count.  Same chunking, same ordering contract.
func DoWide(width, n, grain int, fn func(lo, hi int)) {
	doProcs(width, n, grain, fn)
}

func doProcs(procs, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if procs > chunks {
		procs = chunks
	}
	if procs <= 1 {
		fn(0, n)
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		once sync.Once
		pnc  *WorkerPanic
	)
	work := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() { pnc = &WorkerPanic{Value: r, Stack: debug.Stack()} })
			}
		}()
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * grain
			hi := min(lo+grain, n)
			fn(lo, hi)
		}
	}
	wg.Add(procs)
	for i := 0; i < procs; i++ {
		go work()
	}
	wg.Wait()
	if pnc != nil {
		panic(pnc)
	}
}

// Map computes out[i] = fn(i) for i in [0, n) on the pool, collecting
// results in index order.  grain batches adjacent indices onto one
// worker dispatch; use 1 when each item is heavy (a whole simulator
// run), larger when items are cheap.
func Map[T any](n, grain int, fn func(i int) T) []T {
	out := make([]T, n)
	Do(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = fn(i)
		}
	})
	return out
}

// MapErr is Map for fallible fn.  All items run; the error reported is
// the one at the lowest index — deterministic regardless of which
// worker failed first.
func MapErr[T any](n, grain int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	Do(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], errs[i] = fn(i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
