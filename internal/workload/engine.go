// Closed-loop traffic engine.
//
// The generators in this package emit traces — fixed (object, time)
// sequences decided before the system runs.  A trace cannot model the
// feedback loops real traffic has: a slow commit path stalls the
// clients waiting on it, shed load comes back after a backoff, and
// think times gate how hard any one user can push.  Engine closes the
// loop: virtual clients issue requests against a Target, wait (in
// virtual time) for completion, think, and issue again.  Everything —
// arrival jitter, object choice, mix coin-flips, payload sizes — draws
// from one injected *rand.Rand, so a million-op soak is a pure
// function of its seed.
package workload

import (
	"errors"
	"time"

	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
)

// OpKind classifies a generated request.
type OpKind int

const (
	OpRead OpKind = iota
	OpWrite
	OpCreate
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCreate:
		return "create"
	}
	return "?"
}

// Request is one operation the engine asks the system under test to
// perform.  Object indexes the engine's growing object universe: the
// Target owns the mapping from index to real object identity (it is
// the side that created the objects).  For OpCreate, Object is the
// index the new object will occupy once the create completes.
type Request struct {
	// Client identifies the issuing virtual client, [0, Clients).
	Client int
	// Kind says what to do.
	Kind OpKind
	// Object is the target's object index (see above).
	Object int
	// Size is the payload size for writes and creates.
	Size int
	// Seq numbers the requests a client has issued, starting at 0.
	Seq uint64
}

// ErrOverloaded is returned by a Target that is shedding load.  The
// engine counts the shed, backs the client off, and retries with a
// freshly drawn request — mimicking a user whose request bounced.
var ErrOverloaded = errors.New("workload: target overloaded")

// Target is the system under test.  Do either accepts the request and
// later calls done exactly once (ok=false for a failed/timed-out
// operation), or rejects it synchronously by returning an error
// (ErrOverloaded for backpressure).  When Do returns a non-nil error
// it must not call done.
type Target interface {
	Do(req Request, done func(ok bool)) error
}

// Mix sets the operation mix.  CreateFrac carves creates out first,
// then WriteFrac writes; the remainder reads.
type Mix struct {
	WriteFrac  float64
	CreateFrac float64
}

// EngineConfig tunes a traffic engine.
type EngineConfig struct {
	// Clients is the number of concurrent virtual clients.
	Clients int
	// Ops is the total number of operations to resolve (complete,
	// fail, or drop after a shed) before the engine reports done.
	Ops int
	// Mix is the read/write/create split.
	Mix Mix
	// Objects is the number of objects that exist before the run
	// starts.  Creates grow the universe beyond it.
	Objects int
	// ZipfS is the popularity skew across the universe (0 = uniform).
	ZipfS float64
	// MeanWriteSize sizes write/create payloads (exponential, min 1).
	MeanWriteSize int
	// ClosedLoop selects the arrival process.  Closed loop: each
	// client waits for its previous operation before thinking and
	// issuing the next.  Open loop: requests arrive by a Poisson
	// process regardless of completions — the configuration that
	// exposes overload, since arrivals do not slow down when the
	// system does.
	ClosedLoop bool
	// MeanThink is a closed-loop client's mean think time between a
	// completion and its next request (exponential).
	MeanThink time.Duration
	// MeanArrival is the open loop's mean interarrival gap across the
	// whole engine (exponential).
	MeanArrival time.Duration
	// RetryBackoff is how long a client waits after ErrOverloaded
	// before retrying with a fresh draw (exponential around this
	// mean).  Zero disables retries: a shed request is dropped and
	// consumes one op from the budget, so sustained overload still
	// terminates.
	RetryBackoff time.Duration
	// Shape bends the steady-state traffic in virtual time: diurnal
	// intensity swings and flash crowds.  The zero
	// Shape reproduces the unshaped engine draw for draw.
	Shape Shape
}

// EngineStats is a snapshot of the engine's counters.
type EngineStats struct {
	Issued    int // requests handed to the Target (accepted)
	OK        int // completions with ok=true
	Failed    int // completions with ok=false, plus dropped sheds
	Shed      int // synchronous ErrOverloaded rejections
	Retries   int // re-issues after a shed (not counted in Issued twice)
	Creates   int // accepted creates (subset of Issued)
	InFlight  int // accepted, not yet completed
	Confirmed int // object universe size (initial + completed creates)
}

// Engine drives a Target with generated traffic on a sim.Kernel.
type Engine struct {
	k   *sim.Kernel
	cfg EngineConfig
	t   Target
	z   *Zipf

	stats   EngineStats
	seqs    []uint64 // per-client issue counters
	pending int      // creates issued but not yet resolved
	done    bool

	// Virtual-time latency per resolved op; always collected so the
	// summary can report quantiles without a registry attached.
	latency obs.Histogram
	// readLat isolates read completions — the tail the replica
	// controller is judged on.
	readLat obs.Histogram

	// tap, when attached, observes every resolved operation (the
	// introspection layer's direct feed).  Observation only: a tap
	// must not draw randomness or touch the engine.
	tap func(req Request, lat time.Duration, ok bool)
}

// NewEngine builds an engine.  The kernel's RNG drives every draw.
// Call Start, then run the kernel until Done reports true.
func NewEngine(k *sim.Kernel, cfg EngineConfig, t Target) *Engine {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 1
	}
	// Build the popularity CDF once over the whole universe the run
	// can reach (initial objects + every op a create), then fold
	// samples into the currently confirmed prefix — O(n) once instead
	// of a rebuild per create.
	e := &Engine{
		k:    k,
		cfg:  cfg,
		t:    t,
		z:    NewZipf(cfg.Objects+cfg.Ops+1, cfg.ZipfS, k.Rand()),
		seqs: make([]uint64, cfg.Clients),
	}
	e.stats.Confirmed = cfg.Objects
	return e
}

// Start schedules the first arrivals.  Closed loop: every client
// issues its first request after an initial think drawn from
// MeanThink (staggering the herd).  Open loop: the engine schedules
// Poisson arrivals round-robin across clients.
func (e *Engine) Start() {
	if e.cfg.ClosedLoop {
		for c := 0; c < e.cfg.Clients; c++ {
			c := c
			e.k.After(e.pacedDur(e.cfg.MeanThink), func() { e.issue(c) })
		}
		return
	}
	e.scheduleArrival(0)
}

// Done reports whether the engine has resolved its configured
// operation count and drained everything in flight.
func (e *Engine) Done() bool { return e.done }

// Stats returns a copy of the engine's counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Latency exposes the engine's virtual-time op-latency histogram.
func (e *Engine) Latency() *obs.Histogram { return &e.latency }

// ReadLatency exposes the read-only slice of the latency stream — the
// p50/p99/p999 figures introspective replica management is judged on.
func (e *Engine) ReadLatency() *obs.Histogram { return &e.readLat }

// Tap attaches an observer called once per resolved operation with the
// request, its virtual-time latency, and its outcome — the direct feed
// the introspection layer consumes.  Passing nil detaches.  A tap is
// observation only: attaching one never changes the engine's RNG
// stream, accounting, or latency histograms.
func (e *Engine) Tap(fn func(req Request, lat time.Duration, ok bool)) { e.tap = fn }

// Instrument registers the engine's counters, its confirmed-objects
// gauge and its latency histograms under layer "workload" on reg.  The
// registry reads them from Stats and the engine's own histograms when
// it is read, so they are lifetime values and instrumenting before or
// after a run yields the same final snapshot.
func (e *Engine) Instrument(reg *obs.Registry) {
	const layer = "workload"
	count := func(name string, p *int) {
		reg.CounterSource(layer, name, obs.Value(func() int64 { return int64(*p) }))
	}
	count("issued", &e.stats.Issued)
	count("ok", &e.stats.OK)
	count("failed", &e.stats.Failed)
	count("shed", &e.stats.Shed)
	count("retries", &e.stats.Retries)
	count("creates", &e.stats.Creates)
	reg.GaugeSource(layer, "objects", obs.Value(func() int64 { return int64(e.stats.Confirmed) }))
	reg.HistogramSource(layer, "op_latency_ns", &e.latency)
	reg.HistogramSource(layer, "read_latency_ns", &e.readLat)
}

// expDur draws an exponential duration with the given mean (zero mean
// costs no RNG draw, so disabled timers do not perturb the stream).
func (e *Engine) expDur(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(e.k.Rand().ExpFloat64() * float64(mean))
}

// pacedDur is expDur under the shape's diurnal schedule: at night the
// mean gap stretches by 1/nightRate, thinning arrivals.  The
// day-time (and unshaped) path divides by exactly 1, so legacy runs
// see identical draws.
func (e *Engine) pacedDur(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	if rate := e.cfg.Shape.RateAt(e.k.Now()); rate != 1 {
		mean = time.Duration(float64(mean) / rate)
	}
	return e.expDur(mean)
}

// drawObject samples one target index from the confirmed universe and
// folds in the shape's flash redirect.  The
// flash coin is drawn only while the flash is active, so an idle shape
// leaves the RNG stream untouched.
func (e *Engine) drawObject() int {
	base := e.z.Next() % e.stats.Confirmed
	sh := e.cfg.Shape
	now := e.k.Now()
	u := 1.0 // never redirects
	if sh.NeedsFlashCoin(now) {
		u = e.k.Rand().Float64()
	}
	return sh.MapObject(base, now, u)
}

// remaining reports how many ops have not yet been charged against
// the budget (accepted issues and dropped sheds both charge it).
func (e *Engine) remaining() int {
	return e.cfg.Ops - e.stats.Issued
}

// draw builds the next request for client c against the confirmed
// universe.
func (e *Engine) draw(c int) Request {
	r := Request{Client: c, Seq: e.seqs[c]}
	u := e.k.Rand().Float64()
	switch {
	case u < e.cfg.Mix.CreateFrac:
		r.Kind = OpCreate
		// The new object's index: past everything confirmed and every
		// create already in flight, so two concurrent creates never
		// claim the same slot.
		r.Object = e.stats.Confirmed + e.pending
		r.Size = 1 + int(e.k.Rand().ExpFloat64()*float64(e.cfg.MeanWriteSize))
	case u < e.cfg.Mix.CreateFrac+e.cfg.Mix.WriteFrac:
		r.Kind = OpWrite
		r.Object = e.drawObject()
		r.Size = 1 + int(e.k.Rand().ExpFloat64()*float64(e.cfg.MeanWriteSize))
	default:
		r.Kind = OpRead
		r.Object = e.drawObject()
	}
	return r
}

// issue draws and submits one request for client c, handling shed
// and completion.  Closed-loop clients chain their next think from
// the completion callback; open-loop arrivals are scheduled
// independently.
func (e *Engine) issue(c int) {
	if e.done || e.remaining() <= 0 {
		e.finishIfDrained()
		return
	}
	req := e.draw(c)
	start := e.k.Now()
	// Account the accept BEFORE calling Do: targets may complete the
	// request synchronously (a local read), and complete() must see
	// the request as issued and in flight.  A rejection rolls the
	// optimistic accounting back.
	e.seqs[c]++
	e.stats.Issued++
	e.stats.InFlight++
	if req.Kind == OpCreate {
		e.stats.Creates++
		e.pending++
	}
	err := e.t.Do(req, func(ok bool) {
		e.complete(c, req, start, ok)
	})
	if err != nil {
		e.seqs[c]--
		e.stats.Issued--
		e.stats.InFlight--
		if req.Kind == OpCreate {
			e.stats.Creates--
			e.pending--
		}
		e.stats.Shed++
		if e.cfg.RetryBackoff > 0 {
			// Retry with a fresh draw — the user refreshes rather than
			// replaying the identical request.
			e.k.After(e.expDur(e.cfg.RetryBackoff), func() {
				e.stats.Retries++
				e.issue(c)
			})
		} else {
			// Dropped: charge the budget and count a failure so the
			// run terminates under sustained overload.
			e.stats.Issued++
			e.stats.Failed++
			if e.cfg.ClosedLoop {
				e.k.After(e.pacedDur(e.cfg.MeanThink), func() { e.issue(c) })
			}
			e.finishIfDrained()
		}
	}
}

func (e *Engine) complete(c int, req Request, start time.Duration, ok bool) {
	e.stats.InFlight--
	if req.Kind == OpCreate {
		e.pending--
		if ok {
			e.stats.Confirmed++
		}
	}
	if ok {
		e.stats.OK++
	} else {
		e.stats.Failed++
	}
	lat := int64(e.k.Now() - start)
	e.latency.Observe(lat)
	if req.Kind == OpRead {
		e.readLat.Observe(lat)
	}
	if e.tap != nil {
		e.tap(req, time.Duration(lat), ok)
	}
	if e.cfg.ClosedLoop {
		e.k.After(e.pacedDur(e.cfg.MeanThink), func() { e.issue(c) })
	}
	e.finishIfDrained()
}

// scheduleArrival drives the open loop: exponential gaps, clients
// taken round-robin so per-client Seq streams stay deterministic.
func (e *Engine) scheduleArrival(c int) {
	if e.remaining() <= 0 {
		return
	}
	e.k.After(e.pacedDur(e.cfg.MeanArrival), func() {
		e.issue(c % e.cfg.Clients)
		e.scheduleArrival(c + 1)
	})
}

// finishIfDrained flips Done once the budget is spent and nothing is
// in flight or awaiting a retry.
func (e *Engine) finishIfDrained() {
	if !e.done && e.remaining() <= 0 && e.stats.InFlight == 0 {
		e.done = true
	}
}
