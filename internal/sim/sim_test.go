package sim

import (
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(30*time.Millisecond, func() { order = append(order, 3) })
	k.At(10*time.Millisecond, func() { order = append(order, 1) })
	k.At(20*time.Millisecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v", k.Now())
	}
}

func TestTiesBreakByInsertion(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Millisecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestAfterNestsRelative(t *testing.T) {
	k := NewKernel(1)
	var at time.Duration
	k.After(10*time.Millisecond, func() {
		k.After(5*time.Millisecond, func() { at = k.Now() })
	})
	k.Run()
	if at != 15*time.Millisecond {
		t.Fatalf("nested After fired at %v", at)
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.At(10*time.Millisecond, func() { fired++ })
	k.At(30*time.Millisecond, func() { fired++ })
	k.RunUntil(20 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v, want 20ms", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d", k.Pending())
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestEveryAndCancel(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var cancel func()
	cancel = k.Every(10*time.Millisecond, func() {
		count++
		if count == 3 {
			cancel()
		}
	})
	k.RunUntil(time.Second)
	if count != 3 {
		t.Fatalf("count = %d, want 3 (cancel must stop the ticker)", count)
	}
}

// TestEveryCancelFromOutside: a ticker cancelled from a different event
// stops without firing again, a ticker cancelled before its first tick
// never fires, and the tombstone events both leave behind drain without
// effect.
func TestEveryCancelFromOutside(t *testing.T) {
	k := NewKernel(1)
	count := 0
	cancel := k.Every(10*time.Millisecond, func() { count++ })
	k.At(35*time.Millisecond, func() { cancel() })
	never := 0
	cancelNow := k.Every(50*time.Millisecond, func() { never++ })
	cancelNow() // cancelled before the first tick
	k.RunUntil(45 * time.Millisecond)
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3 (10,20,30ms then cancelled at 35ms)", count)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want the pre-cancelled ticker's 50ms tombstone", k.Pending())
	}
	k.Run()
	if count != 3 || never != 0 {
		t.Fatalf("cancelled tickers revived: count=%d never=%d", count, never)
	}
	if k.Pending() != 0 {
		t.Fatalf("tombstones did not drain: %d pending", k.Pending())
	}
}

// TestRunUntilPastEmptyQueue: advancing the clock beyond the last event
// — or on a queue that is already empty — lands exactly on the target,
// so later After calls measure from the right base.
func TestRunUntilPastEmptyQueue(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.At(5*time.Millisecond, func() { fired = true })
	k.RunUntil(time.Second) // far past the only event
	if !fired {
		t.Fatal("event did not fire")
	}
	if k.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s", k.Now())
	}
	k.RunUntil(2 * time.Second) // nothing queued: still advances
	if k.Now() != 2*time.Second {
		t.Fatalf("empty-queue RunUntil left clock at %v", k.Now())
	}
	var at time.Duration
	k.After(10*time.Millisecond, func() { at = k.Now() })
	k.Run()
	if want := 2*time.Second + 10*time.Millisecond; at != want {
		t.Fatalf("After following RunUntil fired at %v, want %v", at, want)
	}
}

// TestRunOnEmptyKernelReturns: Run and RunWhile on a kernel with
// nothing queued return at once and leave the clock alone.
func TestRunOnEmptyKernelReturns(t *testing.T) {
	k := NewKernel(1)
	k.Run()
	k.RunWhile(func() bool { return true })
	if k.Now() != 0 || k.Pending() != 0 {
		t.Fatalf("empty Run moved the kernel: now=%v pending=%d", k.Now(), k.Pending())
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	k := NewKernel(1)
	var at time.Duration
	k.At(10*time.Millisecond, func() {
		k.At(0, func() { at = k.Now() })
	})
	k.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("past event fired at %v", at)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		k := NewKernel(42)
		var trace []int64
		for i := 0; i < 50; i++ {
			k.After(time.Duration(k.Rand().Intn(100))*time.Millisecond, func() {
				trace = append(trace, int64(k.Now()), k.Rand().Int63())
			})
		}
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
