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
	now    time.Duration
	seq    uint64 // insertion order, the tie-break among equal times
	rng    *rand.Rand
	queue  eventQueue
	halted bool
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
func (k *Kernel) At(t time.Duration, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.queue.push(eventKey{time: t, seq: k.seq}, fn)
}

// After schedules fn to run d after the current virtual time.
func (k *Kernel) After(d time.Duration, fn func()) { k.At(k.now+d, fn) }

// Every schedules fn to run now+d and then every d thereafter, until
// the returned cancel function is called.  Used for soft-state beacons,
// republish sweeps and repair processes.
func (k *Kernel) Every(d time.Duration, fn func()) (cancel func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		k.After(d, tick)
	}
	k.After(d, tick)
	return func() { stopped = true }
}

// Run executes events until the queue is empty or Halt is called.
func (k *Kernel) Run() { k.run(forever, nil) }

// RunUntil executes events with timestamps <= t, then advances the
// clock to t.  Events scheduled beyond t remain queued.
func (k *Kernel) RunUntil(t time.Duration) {
	k.run(t, nil)
	if !k.halted && k.now < t {
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

// Halt stops the current Run/RunUntil after the executing event
// returns.  Pending events stay queued.
func (k *Kernel) Halt() { k.halted = true }

// Pending reports how many events are queued.
func (k *Kernel) Pending() int { return k.queue.len() }

func (k *Kernel) run(limit time.Duration, cond func() bool) {
	k.halted = false
	q := &k.queue
	for q.len() > 0 && !k.halted && q.key[0].time <= limit &&
		(cond == nil || cond()) {
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

// eventQueue is a hand-rolled 4-ary min-heap of event values.
//
// The previous implementation was a container/heap of *event: every At
// boxed a freshly allocated event into an interface, and every pop went
// through interface method dispatch.  This layout removes the per-event
// allocation entirely — the slices' spare capacity acts as the free
// list, recycling slots as events drain — and splits the comparison
// keys from the closures so the sift-down's four-sibling scan reads one
// contiguous 64-byte group of keys per level instead of dragging the
// function pointers through the cache with it.  A 4-ary tree also
// halves the depth a binary heap would walk.
type eventQueue struct {
	key []eventKey // 16 B each: four siblings per cache line
	fn  []func()
}

func (q *eventQueue) len() int { return len(q.key) }

func (q *eventQueue) push(k eventKey, f func()) {
	q.key = append(q.key, k)
	q.fn = append(q.fn, nil)
	i := len(q.key) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !k.less(q.key[p]) {
			break
		}
		q.key[i], q.fn[i] = q.key[p], q.fn[p]
		i = p
	}
	q.key[i], q.fn[i] = k, f
}

func (q *eventQueue) pop() (eventKey, func()) {
	key, fn := q.key, q.fn
	topKey, topFn := key[0], fn[0]
	n := len(key) - 1
	k, f := key[n], fn[n]
	fn[n] = nil // drop the closure reference so the GC can reclaim it
	q.key, q.fn = key[:n], fn[:n]
	if n == 0 {
		return topKey, topFn
	}
	// Sift the hole down: at each level pick the least of up to four
	// siblings — one key cache line — and stop as soon as the displaced
	// leaf fits.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		for j := c + 1; j < end; j++ {
			if key[j].less(key[best]) {
				best = j
			}
		}
		if !key[best].less(k) {
			break
		}
		key[i], fn[i] = key[best], fn[best]
		i = best
	}
	key[i], fn[i] = k, f
	return topKey, topFn
}
