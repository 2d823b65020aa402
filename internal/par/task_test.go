package par

import (
	"bytes"
	"runtime"
	"testing"
)

// atProcs runs body with GOMAXPROCS pinned: 1 takes Start's inline
// path, 4 the helper's.
func atProcs(t *testing.T, body func(t *testing.T, procs int)) {
	t.Helper()
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			body(t, procs)
		}()
	}
}

// TestStartMatchesInline: a task's result is fn's result on either
// path, and a second Wait returns it again without counting a second
// join.
func TestStartMatchesInline(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		before := Stats()
		tasks := make([]*Task[int], 500)
		for i := range tasks {
			i := i
			tasks[i] = Start(func() int { return i * i })
		}
		for i, task := range tasks {
			if got := task.Wait(); got != i*i {
				t.Fatalf("procs=%d: task %d = %d", procs, i, got)
			}
			if got := task.Wait(); got != i*i {
				t.Fatalf("procs=%d: task %d second Wait = %d", procs, i, got)
			}
		}
		after := Stats()
		if got := after.Started - before.Started; got != 500 {
			t.Fatalf("procs=%d: %d tasks counted started, want 500", procs, got)
		}
		if joins := (after.Ready + after.Taken + after.Waited) - (before.Ready + before.Taken + before.Waited); joins != 500 {
			t.Fatalf("procs=%d: %d joins counted for 500 tasks waited twice", procs, joins)
		}
		if unjoined(after) != unjoined(before) {
			t.Fatalf("procs=%d: unjoined moved %d -> %d", procs, unjoined(before), unjoined(after))
		}
		if procs == 1 && after.Inline-before.Inline != 500 {
			t.Fatalf("one processor ran %d of 500 tasks inline", after.Inline-before.Inline)
		}
	})
}

// TestStartPanicRethrownAtWait: the panic surfaces at the join, on the
// caller, as *WorkerPanic carrying the stack of the goroutine that ran
// fn — and again on a second Wait.
func TestStartPanicRethrownAtWait(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		task := Start(func() int { return explode() })
		for round := 0; round < 2; round++ {
			func() {
				defer func() {
					wp, ok := recover().(*WorkerPanic)
					if !ok {
						t.Fatalf("procs=%d round %d: Wait did not panic with *WorkerPanic", procs, round)
					}
					if wp.Value != "boom" {
						t.Fatalf("procs=%d: wrapped value %v", procs, wp.Value)
					}
					if !bytes.Contains(wp.Stack, []byte("par.explode")) {
						t.Fatalf("procs=%d: stack does not name the panicking function:\n%s", procs, wp.Stack)
					}
				}()
				task.Wait()
			}()
		}
		// The helper survives a task's panic.
		if got := Start(func() int { return 7 }).Wait(); got != 7 {
			t.Fatalf("procs=%d: task after a panic = %d", procs, got)
		}
	})
}

//go:noinline
func explode() int { panic("boom") }

// TestStartInlineStartsNoGoroutine: with one processor nothing is
// forked — fn has run by the time Start returns.
func TestStartInlineStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := runtime.NumGoroutine()
	ran := false
	task := Start(func() bool { ran = true; return true })
	if !ran {
		t.Fatal("fn had not run when Start returned")
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("goroutines %d -> %d around an inline Start", before, got)
	}
	if !task.Wait() {
		t.Fatal("inline task lost its result")
	}
}

// TestHelperBehind: with the helper stuck inside one task, a join runs
// the task it wants itself rather than wait its turn; with the queue
// full as well, Start runs fn on the caller instead of blocking.  The
// helper skips what the joiner took and completes the rest.
func TestHelperBehind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// Let the helper work off what earlier tests queued (tasks their
	// joins took still hold queue slots): the queue is first in first
	// out, so once a fresh task has run on the helper it is empty.
	for {
		barrier := Start(func() int { return 0 })
		if barrier.done != nil {
			<-barrier.done
			barrier.Wait()
			break
		}
		runtime.Gosched()
	}
	entered, release := make(chan struct{}), make(chan struct{})
	stuck := Start(func() int { close(entered); <-release; return -1 })
	<-entered // the helper is inside stuck, so the queue below only fills
	queued := make([]*Task[int], helperQueue)
	for i := range queued {
		i := i
		queued[i] = Start(func() int { return i })
	}
	before := Stats()
	onCaller := false
	overflow := Start(func() int { onCaller = true; return 42 })
	if !onCaller {
		t.Fatal("Start queued behind a full helper instead of running inline")
	}
	if overflow.Wait() != 42 {
		t.Fatal("overflow task lost its result")
	}
	const early = helperQueue / 2
	for i, task := range queued[:early] {
		if got := task.Wait(); got != i {
			t.Fatalf("task %d joined ahead of the helper = %d", i, got)
		}
	}
	mid := Stats()
	if mid.Inline-before.Inline != 1 || mid.Taken-before.Taken != early || mid.Waited != before.Waited {
		t.Fatalf("with the helper stuck: +%d inline, +%d taken, +%d waited; want 1, %d, 0",
			mid.Inline-before.Inline, mid.Taken-before.Taken, mid.Waited-before.Waited, early)
	}
	// Join stuck while the helper is still inside it: the join must
	// wait, and only then is stuck let go.
	go func() {
		for Stats().Waited == mid.Waited {
			runtime.Gosched()
		}
		close(release)
	}()
	if stuck.Wait() != -1 {
		t.Fatal("stuck task lost its result")
	}
	if got := Stats().Waited - mid.Waited; got != 1 {
		t.Fatalf("joining the task the helper is inside counted %d waits, want 1", got)
	}
	for i, task := range queued {
		if got := task.Wait(); got != i {
			t.Fatalf("queued task %d = %d", i, got)
		}
	}
	after := Stats()
	if unjoined(after) != unjoined(before)-helperQueue-1 {
		t.Fatalf("unjoined %d -> %d over %d joins", unjoined(before), unjoined(after), helperQueue+1)
	}
	if after.Busy <= 0 {
		t.Fatalf("helper busy time %v after running tasks", after.Busy)
	}
}

// unjoined is how many started tasks nobody has waited for yet.
func unjoined(s TaskStats) int64 { return s.Started - s.Ready - s.Taken - s.Waited }

// TestStartInTalliesItsFamily: a tally counts the tasks started on it
// and their joins, and nothing else; the process-wide counters count
// every task.
func TestStartInTalliesItsFamily(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		var tl Tally
		before := Stats()
		mine := []*Task[int]{StartIn(&tl, func() int { return 1 }), StartIn(&tl, func() int { return 2 })}
		other := Start(func() int { return 3 })
		for i, task := range mine {
			if got := task.Wait(); got != i+1 {
				t.Fatalf("procs=%d: tallied task %d = %d", procs, i, got)
			}
		}
		other.Wait()
		got, all := tl.Stats(), Stats()
		if got.Started != 2 || got.Ready+got.Taken+got.Waited != 2 {
			t.Fatalf("procs=%d: tally %+v, want 2 started and 2 joins", procs, got)
		}
		if procs == 1 && got.Inline != 2 {
			t.Fatalf("one processor: tally counted %d inline of 2", got.Inline)
		}
		if all.Started-before.Started != 3 {
			t.Fatalf("procs=%d: %d tasks counted process-wide, want 3", procs, all.Started-before.Started)
		}
	})
}
