// Package par holds the repository's three concurrency shapes, each a
// deterministic join:
//
//   - Map runs independent whole computations (one simulator per seed or
//     grid cell) on GOMAXPROCS workers and returns results in index order.
//   - DoWide fans blocking I/O (one fsync per volume) out to a fixed
//     number of workers, whatever GOMAXPROCS says.
//   - Start/Task.Wait (task.go) offloads one leaf computation to a helper
//     goroutine and joins it when its result is first needed.
//
// Determinism contract.  Every index runs exactly once and writes only
// its own result slot; any reduction happens in index order after the
// join.  Which worker ran which index never shows in the result, so a
// run is byte-identical at any GOMAXPROCS.  With one worker, fn runs
// inline on the caller in index order: no goroutines, no channels.
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

// Map computes out[i] = fn(i) for i in [0, n) on up to Procs() workers,
// collecting results in index order.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	do(Procs(), n, func(i int) { out[i] = fn(i) })
	return out
}

// DoWide runs fn(i) for i in [0, n) on exactly width workers whatever
// GOMAXPROCS says — for fan-outs whose workers block in the kernel (an
// fsync per index) rather than burn CPU, where the useful width is the
// devices' queue depth, not the core count.  fn(i) must touch only
// state owned by index i.
func DoWide(width, n int, fn func(i int)) {
	do(width, n, fn)
}

// do hands the indices [0, n) out one at a time to min(procs, n)
// workers and returns once all have run.  A panic in any worker is
// re-thrown here wrapped in *WorkerPanic; the remaining indices still
// run first, so the caller never observes state mid-write.
func do(procs, n int, fn func(i int)) {
	if procs > n {
		procs = n
	}
	if procs <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
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
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(procs)
	for w := 0; w < procs; w++ {
		go work()
	}
	wg.Wait()
	if pnc != nil {
		panic(pnc)
	}
}
