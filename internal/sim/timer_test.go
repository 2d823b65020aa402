package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// scheduler is the surface the random schedules below drive, so one
// program can run against the kernel and against the reference model.
type scheduler interface {
	Now() time.Duration
	At(t time.Duration, fn func())
	After(d time.Duration, fn func()) (stop func() bool)
	Every(d time.Duration, fn func()) (cancel func())
	Run()
	Pending() int
}

type kernelSched struct{ *Kernel }

func (k kernelSched) After(d time.Duration, fn func()) func() bool {
	return k.Kernel.After(d, fn).Stop
}

// refSched is the reference model: an unordered bag of events, sorted
// by (time, seq) before every pop.  Nothing is shared with the heap but
// the contract.
type refSched struct {
	now  time.Duration
	seq  uint64
	bag  []*refEvent
	runs int
}

type refEvent struct {
	time time.Duration
	seq  uint64
	fn   func()
	gone bool // ran or stopped
}

func (r *refSched) Now() time.Duration { return r.now }

func (r *refSched) add(t time.Duration, fn func()) *refEvent {
	if t < r.now {
		t = r.now
	}
	r.seq++
	e := &refEvent{time: t, seq: r.seq, fn: fn}
	r.bag = append(r.bag, e)
	return e
}

func (r *refSched) At(t time.Duration, fn func()) { r.add(t, fn) }

func (r *refSched) After(d time.Duration, fn func()) func() bool {
	e := r.add(r.now+d, fn)
	return func() bool {
		if e.gone {
			return false
		}
		e.gone = true
		return true
	}
}

func (r *refSched) Every(d time.Duration, fn func()) func() {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		r.add(r.now+d, tick)
	}
	r.add(r.now+d, tick)
	return func() { stopped = true }
}

func (r *refSched) live() []*refEvent {
	var out []*refEvent
	for _, e := range r.bag {
		if !e.gone {
			out = append(out, e)
		}
	}
	return out
}

func (r *refSched) Pending() int { return len(r.live()) }

func (r *refSched) Run() {
	for {
		r.bag = r.live()
		if len(r.bag) == 0 {
			return
		}
		sort.Slice(r.bag, func(i, j int) bool {
			a, b := r.bag[i], r.bag[j]
			if a.time != b.time {
				return a.time < b.time
			}
			return a.seq < b.seq
		})
		e := r.bag[0]
		e.gone = true
		r.now = e.time
		r.runs++
		e.fn()
	}
}

// randomSchedule runs a seeded program of At/After/Stop/Every calls —
// from outside the loop and from inside events — and returns everything
// observable: which event ran when, and what every Stop answered.
// Times are drawn from a 32 ms range in 1 ms steps, so ties, stops of a
// timer due at the running tick, and stops of long-fired timers (whose
// slots have been reused many times over) are all routine.
func randomSchedule(s scheduler, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	var stops []func() bool
	budget := 1500 // events still allowed to be scheduled
	nextID := 0
	var event func() func()
	spawn := func() {
		if budget == 0 {
			return
		}
		budget--
		d := time.Duration(rng.Intn(32)) * time.Millisecond
		switch rng.Intn(3) {
		case 0:
			s.At(s.Now()+d-8*time.Millisecond, event()) // sometimes in the past
		default:
			stops = append(stops, s.After(d, event()))
		}
	}
	event = func() func() {
		id := nextID
		nextID++
		return func() {
			trace = append(trace, fmt.Sprintf("run %d @%v", id, s.Now()))
			for n := rng.Intn(3); n > 0; n-- {
				spawn()
			}
			if len(stops) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(stops))
				trace = append(trace, fmt.Sprintf("stop #%d = %v", i, stops[i]()))
			}
		}
	}
	for i := 0; i < 200; i++ {
		spawn()
	}
	for i := 0; i < 3; i++ {
		ticks, limit := 0, 5+rng.Intn(20)
		var cancel func()
		cancel = s.Every(time.Duration(1+rng.Intn(7))*time.Millisecond, func() {
			trace = append(trace, fmt.Sprintf("tick %d @%v", i, s.Now()))
			spawn()
			if ticks++; ticks == limit {
				cancel()
			}
		})
	}
	// A few stops before anything has run.
	for i := 0; i < 20; i++ {
		j := rng.Intn(len(stops))
		trace = append(trace, fmt.Sprintf("stop #%d = %v", j, stops[j]()))
	}
	s.Run()
	// Everything has fired or been stopped: no handle may still work.
	for i, stop := range stops {
		if stop() {
			trace = append(trace, fmt.Sprintf("late stop #%d succeeded", i))
		}
	}
	trace = append(trace, fmt.Sprintf("pending %d", s.Pending()))
	return trace
}

// TestRandomSchedulesMatchReference: on random schedules the kernel
// runs exactly the events the sort-based model runs, in exactly its
// (time, seq) order, and every Stop — of a queued timer, a fired one, a
// stopped one, one whose slot has been recycled — answers as the model
// does.  A stopped timer never runs: it would show up as an extra line.
func TestRandomSchedulesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		k := NewKernel(seed)
		ref := &refSched{}
		got := randomSchedule(kernelSched{k}, seed)
		want := randomSchedule(ref, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, model has %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: observation %d is %q, model says %q", seed, i, got[i], want[i])
			}
		}
		st := k.Stats()
		if st.Run != uint64(ref.runs) {
			t.Fatalf("seed %d: Stats.Run = %d, model ran %d", seed, st.Run, ref.runs)
		}
		if st.Run+st.Stopped != k.seq {
			t.Fatalf("seed %d: %d run + %d stopped != %d scheduled", seed, st.Run, st.Stopped, k.seq)
		}
		if st.PeakQueue < 200 || st.MeanQueue <= 0 || st.MeanQueue > st.PeakQueue {
			t.Fatalf("seed %d: implausible occupancy %+v", seed, st)
		}
	}
}

// TestStopContract walks the Timer contract case by case.
func TestStopContract(t *testing.T) {
	k := NewKernel(1)
	var ran []string
	note := func(s string) func() { return func() { ran = append(ran, s) } }

	if (Timer{}).Stop() {
		t.Fatal("zero Timer stopped something")
	}

	// A stopped timer is gone at once and never runs; a second Stop is
	// a no-op.
	a := k.After(5*time.Millisecond, note("a"))
	k.At(5*time.Millisecond, note("b"))
	if !a.Stop() || a.Stop() {
		t.Fatal("Stop must succeed exactly once on a queued timer")
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d after Stop, want 1 (removed, not tombstoned)", k.Pending())
	}

	// Stopping from inside another event due at the same tick.
	var c Timer
	k.At(7*time.Millisecond, func() {
		ran = append(ran, "killer")
		if !c.Stop() {
			t.Error("same-tick Stop of a not-yet-run timer failed")
		}
	})
	c = k.After(7*time.Millisecond, note("c"))

	// A timer cannot stop itself: by the time it runs it has fired.
	var d Timer
	d = k.After(9*time.Millisecond, func() {
		ran = append(ran, "d")
		if d.Stop() {
			t.Error("Stop from inside the timer's own closure succeeded")
		}
	})
	k.Run()
	if fmt.Sprint(ran) != "[b killer d]" {
		t.Fatalf("ran %v, want [b killer d]", ran)
	}

	// Every slot used so far is free again; a new timer reuses one.  The
	// old handles must neither stop it nor claim to.
	e := k.After(time.Millisecond, note("e"))
	for _, old := range []Timer{a, c, d} {
		if old.Stop() {
			t.Fatal("stale handle stopped a newer timer in its recycled slot")
		}
	}
	k.Run()
	if ran[len(ran)-1] != "e" {
		t.Fatalf("timer in a recycled slot did not run: %v", ran)
	}
	if e.Stop() {
		t.Fatal("Stop after firing succeeded")
	}
	if st := k.Stats(); st.Run != 4 || st.Stopped != 2 {
		t.Fatalf("stats %+v, want 4 run, 2 stopped", st)
	}
}

// TestStopKeepsHeapOrder removes timers from every region of a large
// heap — root, interior, last leaf — and checks what is left still
// drains in (time, seq) order.
func TestStopKeepsHeapOrder(t *testing.T) {
	k := NewKernel(3)
	const n = 1000
	timers := make([]Timer, n)
	due := make([]time.Duration, n)
	var got []int
	for i := range timers {
		i := i
		due[i] = time.Duration(k.Rand().Intn(200)) * time.Millisecond
		timers[i] = k.After(due[i], func() { got = append(got, i) })
	}
	stopped := make(map[int]bool)
	for len(stopped) < n/2 {
		i := k.Rand().Intn(n)
		if timers[i].Stop() == stopped[i] {
			t.Fatalf("Stop(%d) = %v on a timer stopped=%v", i, !stopped[i], stopped[i])
		}
		stopped[i] = true
	}
	k.Run()
	if len(got) != n-len(stopped) {
		t.Fatalf("%d timers ran, want %d", len(got), n-len(stopped))
	}
	for j, i := range got {
		if stopped[i] {
			t.Fatalf("stopped timer %d ran", i)
		}
		if j > 0 {
			p := got[j-1]
			if due[p] > due[i] || (due[p] == due[i] && p > i) {
				t.Fatalf("timer %d (due %v) ran before %d (due %v)", p, due[p], i, due[i])
			}
		}
	}
}
