package par

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one leaf computation started off the caller's goroutine and
// joined with Wait.  It is the fork-join of Do stretched over time: the
// caller keeps working between the fork and the join, so fn must be a
// pure function of inputs snapshotted before Start — it may read
// nothing the caller will write and write nothing the caller can see
// except its return value.  The caller's result is then the same
// whether fn ran on the helper, or inline at one processor.
//
// Start and Wait belong to one goroutine per Task (the simulator's
// kernel goroutine, in this repository); Wait may be called again and
// returns the same value.
type Task[T any] struct {
	fn      func() T
	val     T
	pnc     *WorkerPanic
	claimed atomic.Bool   // set by whichever goroutine runs fn
	done    chan struct{} // closed by the helper after fn; nil when fn ran in Start
	joined  bool
}

// helperQueue bounds how far the one helper may fall behind before
// Start stops handing it work.  A workload tick can submit a few
// hundred writes in a single kernel event; past that the helper is the
// bottleneck (several simulators sharing it under `-seeds N`), and
// running fn on the caller costs what it cost before the helper
// existed.
const helperQueue = 256

var helper struct {
	once sync.Once
	q    chan interface{ run() }
}

// Counters behind Stats.  Which joins found their result ready, and
// how long the helper was busy, depend on how the host scheduled two
// goroutines — so these never enter the obs registry, a -metrics or
// -trace dump, or stdout.  They exist for the stderr `crypto:` rail.
var (
	statStarted, statInline, statReady, statTaken, statWaited atomic.Int64
	statBusyNs                                                atomic.Int64
)

// TaskStats is a process-wide snapshot of the Start/Wait counters.
// Host-timing facts; see the note on the counters.
type TaskStats struct {
	Started int64         // tasks started, on the helper or inline
	Inline  int64         // of those, run on the caller: one processor, or the helper a full queue behind
	Ready   int64         // first joins that found the result waiting
	Taken   int64         // first joins that ran fn themselves: the helper had not reached it
	Waited  int64         // first joins that blocked while the helper finished fn
	Busy    time.Duration // wall time the helper spent inside tasks
}

// Unjoined is how many started tasks nobody has waited for yet.
func (s TaskStats) Unjoined() int64 { return s.Started - s.Ready - s.Taken - s.Waited }

// Stats reads the counters.
func Stats() TaskStats {
	return TaskStats{
		Started: statStarted.Load(),
		Inline:  statInline.Load(),
		Ready:   statReady.Load(),
		Taken:   statTaken.Load(),
		Waited:  statWaited.Load(),
		Busy:    time.Duration(statBusyNs.Load()),
	}
}

// Start begins fn and returns its handle.  With one processor fn runs
// here, before Start returns, and no goroutine exists; otherwise it is
// queued to a single helper goroutine created on first use, which runs
// tasks in start order for the life of the process.  One helper is the
// width: the callers are serial simulators offloading a fraction of
// their own time, not a fan-out.
func Start[T any](fn func() T) *Task[T] {
	t := &Task[T]{fn: fn}
	statStarted.Add(1)
	if Procs() > 1 {
		helper.once.Do(startHelper)
		t.done = make(chan struct{})
		select {
		case helper.q <- t:
			return t
		default:
			t.done = nil
		}
	}
	statInline.Add(1)
	t.exec()
	return t
}

func startHelper() {
	helper.q = make(chan interface{ run() }, helperQueue)
	go func() {
		for t := range helper.q {
			began := time.Now()
			t.run()
			statBusyNs.Add(int64(time.Since(began)))
		}
	}()
}

// run is the helper's side: execute fn unless the joiner already has.
func (t *Task[T]) run() {
	if t.claimed.CompareAndSwap(false, true) {
		t.exec()
		close(t.done)
	}
}

// exec calls fn once, capturing a panic for Wait to re-throw.
func (t *Task[T]) exec() {
	defer func() {
		if r := recover(); r != nil {
			t.pnc = &WorkerPanic{Value: r, Stack: debug.Stack()}
		}
		t.fn = nil
	}()
	t.val = t.fn()
}

// Wait joins the task and returns fn's result.  If the helper has not
// reached the task yet, Wait runs fn here instead of waiting for the
// helper to wake — a parked goroutine takes longer to start than most
// leaves take to run, so a join that arrives early costs what the
// inline call would have, not more.  Otherwise it blocks until the
// helper is done.  A panic inside fn is re-thrown here, on the caller's
// goroutine, wrapped in *WorkerPanic with the stack of the goroutine
// that ran fn.
func (t *Task[T]) Wait() T {
	if !t.joined {
		t.joined = true
		switch {
		case t.done == nil:
			statReady.Add(1)
		case t.claimed.CompareAndSwap(false, true):
			statTaken.Add(1)
			t.exec()
		default:
			select {
			case <-t.done:
				statReady.Add(1)
			default:
				statWaited.Add(1)
				<-t.done
			}
		}
	}
	if t.pnc != nil {
		panic(t.pnc)
	}
	return t.val
}
