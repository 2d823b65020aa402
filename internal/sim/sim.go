// Package sim is a deterministic discrete-event simulation kernel.
//
// OceanStore's evaluation concerns protocol properties — bytes on the
// wire, message latencies, hop counts, fragment availability — none of
// which depend on real hardware.  We therefore run every protocol on a
// virtual clock: events execute in timestamp order, ties broken by
// insertion sequence, and all randomness flows from a single seeded
// source.  The same seed always reproduces the same run, byte for byte.
//
// The kernel is one heap, one clock, one RNG, and it is single-threaded
// by design: every quantity the experiments report is a function of one
// total (time, seq) event order, and a kernel small enough to audit is
// what makes that order trustworthy at a million nodes.  DESIGN.md §11
// records why it is not partitioned by region.
package sim

import (
	"math"
	"math/rand"
	"time"
)

// forever bounds Run's loop; no schedulable time exceeds it.
const forever = time.Duration(math.MaxInt64)

// Kernel is the event loop.
type Kernel struct {
	now   time.Duration
	seq   uint64 // insertion order, the tie-break among equal times
	rng   *rand.Rand
	queue eventQueue

	// Occupancy counters behind Stats.
	ran, stopped uint64
	queueSum     uint64 // queue length summed over every pop
}

// NewKernel creates a kernel whose randomness derives from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's seeded random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// At schedules fn to run at absolute virtual time t.  Scheduling in the
// past runs the event at the current time (it cannot rewind the clock).
// At hands out no handle: it is the message path, and a message in
// flight cannot be recalled.
func (k *Kernel) At(t time.Duration, fn func()) {
	k.seq++
	k.queue.push(eventKey{time: max(t, k.now), seq: k.seq}, fn, noTimer)
}

// After schedules fn to run d after the current virtual time and
// returns a handle that can take the event back out of the queue.
func (k *Kernel) After(d time.Duration, fn func()) Timer {
	k.seq++
	q := &k.queue
	s := q.allocSlot()
	q.push(eventKey{time: k.now + max(d, 0), seq: k.seq}, fn, s)
	return Timer{k: k, slot: s, gen: q.gen[s]}
}

// Timer is the handle of a one-shot event scheduled with After.  It is
// a plain value — copy it, store it, drop it — and the zero Timer is a
// handle to nothing.
type Timer struct {
	k    *Kernel
	slot int32
	gen  uint32
}

// Stop removes the event from the queue and reports whether it did: true
// means the closure will never run.  It returns false, and changes
// nothing, once the event has fired (including from inside its own
// closure), after an earlier Stop, and on the zero Timer.
//
// Protocol code stops a timeout at the moment it can no longer do
// anything — the point past which its closure would look the request
// up, find it resolved, and return.  Taking such an event out leaves
// every other event's (time, seq) key as it was, so the order the rest
// run in, and with it every seeded trace, is exactly what it would have
// been had the no-op stayed queued until its deadline.
func (t Timer) Stop() bool {
	if t.k == nil {
		return false
	}
	q := &t.k.queue
	if q.gen[t.slot] != t.gen {
		return false
	}
	q.remove(int(q.pos[t.slot]))
	q.freeSlot(t.slot)
	t.k.stopped++
	return true
}

// Every schedules fn to run now+d and then every d thereafter, until
// the returned cancel function is called.  Used for gossip rounds,
// audits and archival scrub and repair sweeps.
func (k *Kernel) Every(d time.Duration, fn func()) (cancel func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		k.At(k.now+d, tick)
	}
	k.At(k.now+d, tick)
	return func() { stopped = true }
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() { k.run(forever, nil) }

// RunUntil executes events with timestamps <= t, then advances the
// clock to t.  Events scheduled beyond t remain queued.
func (k *Kernel) RunUntil(t time.Duration) {
	k.run(t, nil)
	if k.now < t {
		k.now = t
	}
}

// RunFor advances the simulation by d from the current time.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now + d) }

// RunWhile executes events while cond stays true and the queue is
// non-empty.  cond is checked between events, so the driver loop for
// "run until the workload drains" costs one closure call per event
// instead of repeated RunFor probing.
func (k *Kernel) RunWhile(cond func() bool) { k.run(forever, cond) }

// Pending reports how many events are queued.
func (k *Kernel) Pending() int { return k.queue.len() }

// Stats is the kernel's occupancy record: how much work the run was,
// and how much of the queue was live.
type Stats struct {
	Run       uint64 // events executed
	Stopped   uint64 // timers taken out by Stop before they fired
	PeakQueue int    // most events queued at once
	MeanQueue int    // queue length at each pop, averaged over Run
}

// Stats reports the counters accumulated since the kernel was created.
func (k *Kernel) Stats() Stats {
	st := Stats{Run: k.ran, Stopped: k.stopped, PeakQueue: k.queue.peak}
	if k.ran > 0 {
		st.MeanQueue = int(k.queueSum / k.ran)
	}
	return st
}

func (k *Kernel) run(limit time.Duration, cond func() bool) {
	q := &k.queue
	for q.len() > 0 && q.key[0].time <= limit &&
		(cond == nil || cond()) {
		k.ran++
		k.queueSum += uint64(q.len())
		key, fn := q.pop()
		k.now = key.time
		fn()
	}
}

// eventKey is the kernel's total order: timestamp, ties broken by
// insertion sequence.  Every key is unique, so any correct heap pops
// them in exactly one order — which is what keeps seeded traces
// byte-identical across queue implementations.
type eventKey struct {
	time time.Duration
	seq  uint64
}

func (k eventKey) less(o eventKey) bool {
	if k.time != o.time {
		return k.time < o.time
	}
	return k.seq < o.seq
}

// noTimer marks a heap entry no handle points at.
const noTimer = -1

// eventQueue is a hand-rolled, indexed 4-ary min-heap of event values.
//
// The heap itself is three parallel slices.  Splitting the comparison
// keys from the closures lets the sift-down's four-sibling scan read one
// contiguous 64-byte group of keys per level instead of dragging the
// function pointers through the cache with it; a 4-ary tree halves the
// depth a binary heap would walk; and nothing is boxed — the slices'
// spare capacity is the free list, recycling entries as events drain.
//
// The third slice is what makes a timer cancellable.  An entry scheduled
// with After names a slot in a small side table; pos[slot] follows the
// entry through every sift move, so Stop finds it in O(1) and removes it
// in O(log n).  A slot returns to the free list when its entry pops or
// is stopped, and its generation is bumped at that moment: a handle kept
// past its event compares unequal and can neither cancel nor observe
// whichever newer timer reuses the slot.  (The generation is 32 bits; a
// stale handle would have to sit through 2^32 reuses of one slot to
// alias.)  Entries scheduled with At carry noTimer and touch none of it.
type eventQueue struct {
	key  []eventKey // 16 B each: four siblings per cache line
	fn   []func()
	slot []int32 // the entry's timer slot, or noTimer

	pos  []int32  // slot -> heap index of its entry (stale once freed)
	gen  []uint32 // slot -> generation of the handle that may stop it
	free []int32  // slots with no entry

	peak int // high-water mark of len()
}

func (q *eventQueue) len() int { return len(q.key) }

// allocSlot takes a timer slot off the free list, growing the table
// when it is empty.
func (q *eventQueue) allocSlot() int32 {
	if n := len(q.free); n > 0 {
		s := q.free[n-1]
		q.free = q.free[:n-1]
		return s
	}
	q.pos = append(q.pos, 0)
	q.gen = append(q.gen, 0)
	return int32(len(q.pos) - 1)
}

// freeSlot retires a slot whose entry has left the heap, invalidating
// every handle to it.
func (q *eventQueue) freeSlot(s int32) {
	q.gen[s]++
	q.free = append(q.free, s)
}

// set writes an entry at heap index i, keeping its slot's position
// current.
func (q *eventQueue) set(i int, k eventKey, f func(), s int32) {
	q.key[i], q.fn[i], q.slot[i] = k, f, s
	if s >= 0 {
		q.pos[s] = int32(i)
	}
}

func (q *eventQueue) push(k eventKey, f func(), s int32) {
	q.key = append(q.key, k)
	q.fn = append(q.fn, nil)
	q.slot = append(q.slot, noTimer)
	if len(q.key) > q.peak {
		q.peak = len(q.key)
	}
	q.up(len(q.key)-1, k, f, s)
}

func (q *eventQueue) pop() (eventKey, func()) {
	topKey, topFn := q.key[0], q.fn[0]
	if s := q.slot[0]; s >= 0 {
		q.freeSlot(s)
	}
	q.remove(0)
	return topKey, topFn
}

// remove deletes the entry at heap index i: the last leaf takes its
// place and sifts whichever way restores the heap.
func (q *eventQueue) remove(i int) {
	n := len(q.key) - 1
	k, f, s := q.key[n], q.fn[n], q.slot[n]
	q.fn[n] = nil // drop the closure reference so the GC can reclaim it
	q.key, q.fn, q.slot = q.key[:n], q.fn[:n], q.slot[:n]
	if i == n {
		return
	}
	if i > 0 && k.less(q.key[(i-1)>>2]) {
		q.up(i, k, f, s)
	} else {
		q.down(i, k, f, s)
	}
}

// up sifts the entry (k, f, s) from the hole at i toward the root.
func (q *eventQueue) up(i int, k eventKey, f func(), s int32) {
	for i > 0 {
		p := (i - 1) >> 2
		if !k.less(q.key[p]) {
			break
		}
		q.set(i, q.key[p], q.fn[p], q.slot[p])
		i = p
	}
	q.set(i, k, f, s)
}

// down sifts the entry (k, f, s) from the hole at i toward the leaves:
// at each level pick the least of up to four siblings — one key cache
// line — and stop as soon as the entry fits.
func (q *eventQueue) down(i int, k eventKey, f func(), s int32) {
	key, n := q.key, len(q.key)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := min(c+4, n)
		best := c
		for j := c + 1; j < end; j++ {
			if key[j].less(key[best]) {
				best = j
			}
		}
		if !key[best].less(k) {
			break
		}
		q.set(i, key[best], q.fn[best], q.slot[best])
		i = best
	}
	q.set(i, k, f, s)
}
