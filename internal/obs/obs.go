// Package obs is the deterministic observability layer: counters,
// gauges and histograms keyed by (node, layer, name), plus a
// per-message trace ring (trace.go), all collected over simulated time.
//
// The paper's introspection tier (§5) assumes every node can observe
// message flows, hop counts and fragment health; obs is the substrate
// the protocol layers report into so an experiment can explain *why* a
// run behaved as it did, not just what it printed.
//
// Determinism contract.  A Registry is not synchronised: it belongs to
// exactly one simulator (one sim.Kernel), which is single-threaded, so
// every mutation happens in virtual-time order.  Concurrent sweeps
// (par.Map over seeds or grid cells) give each simulator its own
// Registry and Merge them afterwards in seed/cell order — the same
// ordered-merge discipline internal/par uses for output buffers.  With
// that discipline the merged snapshot, the Benchmark-line dump and the JSONL
// trace are byte-identical at any GOMAXPROCS.
//
// Hot-path cost.  Every counter series is read through a Source, so a
// count has one copy: a layer that keeps counts of its own — its Stats,
// simnet's per-link bytes, epidemic's counts per hosting node —
// registers them, and the registry reads them only when it is itself
// read.  Counts only the registry keeps, which many instances share,
// are node-wide handles (Counter, Gauge, Histogram) resolved once at
// instrumentation time and bumped with plain integer arithmetic; a nil
// handle (uninstrumented run) makes every method a no-op.
package obs

import (
	"cmp"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"time"
)

// NodeWide keys a metric aggregated over all nodes rather than
// attributed to one.
const NodeWide = -1

// Key identifies one metric: which node it is attributed to (NodeWide
// for aggregates), which protocol layer reported it, and its name.
type Key struct {
	Node  int
	Layer string
	Name  string
}

// Counter is a monotonically increasing integer.  Methods on a nil
// counter are no-ops, so uninstrumented layers pay one nil check.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Gauge is a settable float value (queue depths, ratios).
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// histBuckets covers non-negative int64 values in power-of-two buckets:
// bucket i holds values whose bit length is i (bucket 0 holds zero).
const histBuckets = 65

// Histogram accumulates non-negative integer observations — hop
// counts, bytes, or durations over simulated time (nanoseconds via
// ObserveDuration) — into power-of-two buckets.  Exact count, sum, min
// and max are kept alongside, so means are exact and only quantiles
// are bucket-resolution.  All state is integral: merges and dumps are
// bit-exact, never subject to float summation order.
type Histogram struct {
	count    int64
	sum      int64
	min, max int64
	buckets  [histBuckets]int64
}

// Observe records one value; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
}

// ObserveDuration records a simulated-time duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Min returns the exact smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the exact integer mean (0 when empty).
func (h *Histogram) Mean() int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Quantile returns an upper bound for the q-quantile at bucket
// resolution, clamped to the exact observed min and max.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := int64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	cum := int64(0)
	for i, n := range h.buckets {
		cum += n
		if cum >= rank {
			// Bucket i holds values in [2^(i-1), 2^i - 1]; report the
			// upper bound, clamped into the observed range.
			var hi int64
			if i >= 63 {
				hi = h.max
			} else {
				hi = int64(1)<<uint(i) - 1
			}
			if hi > h.max {
				hi = h.max
			}
			if hi < h.min {
				hi = h.min
			}
			return hi
		}
	}
	return h.max
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// family is every series that shares one (layer, name): at most one
// node-wide gauge and histogram, and the counters its sources serve,
// the registry's own counter among them.  Layer and name are stored —
// and compared — once per family, not once per series.
type family struct {
	layer, name string
	counter     *Counter // also in sources
	gauge       *Gauge
	hist        *Histogram
	sources     []Source
}

// each visits the family's series in dump order — by node, and at one
// node counter, gauge, histogram.  A visit is a gauge when g is
// non-nil, a histogram when h is, and otherwise a counter whose value
// is v.
func (f *family) each(visit func(node int, v int64, g *Gauge, h *Histogram)) {
	if f.gauge == nil && f.hist == nil {
		f.counters().Each(func(node int, v int64) { visit(node, v, nil, nil) })
		return
	}
	// Few families hold a gauge or histogram, and none in a real dump
	// a counter too: sum their counters to put the node-wide one first.
	pts := f.combined()
	if len(pts) > 0 && pts[0].node == NodeWide {
		visit(NodeWide, pts[0].v, nil, nil)
		pts = pts[1:]
	}
	if f.gauge != nil {
		visit(NodeWide, 0, f.gauge, nil)
	}
	if f.hist != nil {
		visit(NodeWide, 0, nil, f.hist)
	}
	for _, p := range pts {
		visit(p.node, p.v, nil, nil)
	}
}

// counters is the family's counters as one source: none, its one
// source streamed as it is, or several summed by combined.
func (f *family) counters() Source {
	switch len(f.sources) {
	case 0:
		return frozen(nil)
	case 1:
		return f.sources[0]
	}
	return f.combined()
}

// point is one counter value.
type point struct {
	node int
	v    int64
}

// frozen is a Source over values fixed in node order: what combined
// returns, and what Merge leaves on a family from another registry.
type frozen []point

func (s frozen) Len() int { return len(s) }

func (s frozen) Each(visit func(node int, v int64)) {
	for _, p := range s {
		visit(p.node, p.v)
	}
}

// combined is the family's sources summed per node, in node order:
// each source's stream is merged into the running sum, so several
// networks on one registry, or a Merge beside a layer's own source,
// read as one series per node.
func (f *family) combined() frozen {
	var sum frozen
	for _, src := range f.sources {
		prev := sum
		sum = make(frozen, 0, len(prev)+src.Len())
		i := 0
		src.Each(func(node int, v int64) {
			for ; i < len(prev) && prev[i].node < node; i++ {
				sum = append(sum, prev[i])
			}
			if i < len(prev) && prev[i].node == node {
				v += prev[i].v
				i++
			}
			sum = append(sum, point{node, v})
		})
		sum = append(sum, prev[i:]...)
	}
	return sum
}

// len is how many series a dump of the family lists.
func (f *family) len() int {
	n := f.counters().Len()
	if f.gauge != nil {
		n++
	}
	if f.hist != nil {
		n++
	}
	return n
}

// familyKey interns a family.
type familyKey struct{ layer, name string }

// Registry holds one simulator's metrics.  Handles are get-or-create:
// two layers asking for the same key share the value, which is how
// per-object rings aggregate into pool-wide counters.
//
// Series live in families, one per (layer, name): a gauge or histogram
// is created through Gauge or Histogram, and every counter series is
// served by one of the family's Sources — the registry's own Counter
// among them — so the dump walks families and never meets a series it
// would have to place by hashing or comparing strings.
type Registry struct {
	byName map[familyKey]*family
	// families is every family, in creation order until a dump sorts
	// it in place by (layer, name); ordered says it still is.
	families []*family
	ordered  bool
	onRead   []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[familyKey]*family)}
}

// family interns (layer, name).
func (r *Registry) family(layer, name string) *family {
	if r == nil {
		return nil
	}
	k := familyKey{layer, name}
	f, ok := r.byName[k]
	if !ok {
		f = &family{layer: layer, name: name}
		r.byName[k] = f
		r.families = append(r.families, f)
		r.ordered = false
	}
	return f
}

// Source serves one family's counters from storage a layer keeps.  The
// registry only reads it, and only while it is being read itself
// (Order, Snapshot, WriteBench, CounterValue, and Merge from it), after
// its OnRead hooks have run.
type Source interface {
	// Len is how many series Each visits.
	Len() int
	// Each visits (node, value) once per series, in ascending node
	// order, so a NodeWide series comes first.
	Each(visit func(node int, v int64))
}

// Len and Each make a Counter the Source of its one node-wide series.
func (c *Counter) Len() int { return 1 }

func (c *Counter) Each(visit func(node int, v int64)) { visit(NodeWide, c.v) }

// Value is a Source over one node-wide count a layer keeps, read when
// the registry is.
type Value func() int64

func (v Value) Len() int { return 1 }

func (v Value) Each(visit func(node int, v int64)) { visit(NodeWide, v()) }

// CounterSource adds src to the counters named (layer, name).  It is
// how a count a layer keeps enters the dump, and it is read-only:
// nothing writes through it.  Several sources under one name add per
// node.  A nil registry ignores the call.
func (r *Registry) CounterSource(layer, name string, src Source) {
	if f := r.family(layer, name); f != nil {
		f.sources = append(f.sources, src)
	}
}

// OnRead registers fn to run at the start of every read of the
// registry, before anything is counted or visited.  A layer registers
// its sources from it, so families it would otherwise create on its
// hot path are built once, when a dump wants them.  A nil registry
// ignores the call.
func (r *Registry) OnRead(fn func()) {
	if r != nil {
		r.onRead = append(r.onRead, fn)
	}
}

// read runs the OnRead hooks; every read of the registry starts here.
func (r *Registry) read() {
	for _, fn := range r.onRead {
		fn()
	}
}

// Counter returns the node-wide counter named (layer, name), creating
// it on first use as one of the family's sources.  A nil registry
// returns a nil (no-op) handle, so layers can resolve handles
// unconditionally.
func (r *Registry) Counter(layer, name string) *Counter {
	f := r.family(layer, name)
	if f == nil {
		return nil
	}
	if f.counter == nil {
		f.counter = new(Counter)
		f.sources = append(f.sources, f.counter)
	}
	return f.counter
}

// Gauge returns the node-wide gauge named (layer, name), creating it
// on first use; nil registry gives a nil handle.
func (r *Registry) Gauge(layer, name string) *Gauge {
	if f := r.family(layer, name); f != nil {
		return orNew(&f.gauge)
	}
	return nil
}

// Histogram returns the node-wide histogram named (layer, name),
// creating it on first use; nil registry gives a nil handle.
func (r *Registry) Histogram(layer, name string) *Histogram {
	if f := r.family(layer, name); f != nil {
		return orNew(&f.hist)
	}
	return nil
}

// orNew returns *p, making it first if it is nil.
func orNew[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// CounterValue reads a counter without creating it: a missing key
// reads as zero and creates no series.  Invariant checks and tests use
// this so that *reading* a dump-visible metric can never add keys to
// the dump (Counter's get-or-create would).  Like every read it runs
// the OnRead hooks first, which register only what a dump would.
func (r *Registry) CounterValue(node int, layer, name string) int64 {
	if r == nil {
		return 0
	}
	r.read()
	f := r.byName[familyKey{layer, name}]
	if f == nil {
		return 0
	}
	var v int64
	for _, src := range f.sources {
		src.Each(func(n int, x int64) {
			if n == node {
				v += x
			}
		})
	}
	return v
}

// Merge folds another registry into this one: counters and gauges add,
// histograms merge.  The other's counters, read as they stand now, add
// node-wide into this registry's own Counter and join per node as one
// frozen source.  Merging
// per-simulator registries in seed order yields the same totals at any
// worker count, because integer addition is associative and
// commutative — the float caveat does not arise for
// counters/histograms, and gauge addition across simulators is only
// meaningful for additive gauges (document per metric).
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	o.read()
	for _, of := range o.families {
		f := r.family(of.layer, of.name)
		if of.gauge != nil {
			orNew(&f.gauge).v += of.gauge.v
		}
		if of.hist != nil {
			orNew(&f.hist).Merge(of.hist)
		}
		var pts frozen
		of.counters().Each(func(node int, v int64) {
			if node == NodeWide {
				r.Counter(of.layer, of.name).Add(v)
			} else {
				pts = append(pts, point{node, v})
			}
		})
		if pts != nil {
			f.sources = append(f.sources, pts)
		}
	}
}

// Order puts the registry in dump order — families by (layer, name) —
// and returns how many series and families it holds.  Snapshot and
// WriteBench order implicitly; a caller that reports the registry's
// size, or times ordering apart from formatting, calls Order first.
// Order is one string sort over the families, whatever the series
// count, and depends on no map's iteration order.
func (r *Registry) Order() (series, families int) {
	if r == nil {
		return 0, 0
	}
	r.read()
	if !r.ordered {
		slices.SortFunc(r.families, func(a, b *family) int {
			if c := cmp.Compare(a.layer, b.layer); c != 0 {
				return c
			}
			return cmp.Compare(a.name, b.name)
		})
		r.ordered = true
	}
	for _, f := range r.families {
		series += f.len()
	}
	return series, len(r.families)
}

// Metric is one snapshotted value.  A snapshot of a large world is
// hundreds of thousands of counters, so the histogram payload sits
// behind a pointer only histograms allocate.
type Metric struct {
	Key  Key
	Kind string // "counter", "gauge", "hist"
	// Counter/histogram payload.
	Count int64
	// Gauge payload.
	Value float64
	// Hist is the rest of a histogram's payload; nil for other kinds.
	Hist *HistSummary
}

// HistSummary is a snapshotted histogram beyond its count.
type HistSummary struct {
	Sum, Min, Max, P50, P99 int64
}

// Snapshot returns every metric sorted by (layer, name, node) —
// deterministic regardless of creation order.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	n, _ := r.Order()
	out := make([]Metric, 0, n)
	nh := 0
	for _, f := range r.families {
		if f.hist != nil {
			nh++
		}
	}
	hists := make([]HistSummary, 0, nh) // one array behind every Hist
	var key Key
	visit := func(node int, v int64, g *Gauge, h *Histogram) {
		key.Node = node
		switch {
		case g != nil:
			out = append(out, Metric{Key: key, Kind: "gauge", Value: g.v})
		case h != nil:
			hists = append(hists, HistSummary{
				Sum: h.sum, Min: h.min, Max: h.max,
				P50: h.Quantile(0.50), P99: h.Quantile(0.99),
			})
			out = append(out, Metric{Key: key, Kind: "hist", Count: h.count, Hist: &hists[len(hists)-1]})
		default:
			out = append(out, Metric{Key: key, Kind: "counter", Count: v})
		}
	}
	for _, f := range r.families {
		key.Layer, key.Name = f.layer, f.name
		f.each(visit)
	}
	return out
}

// writeChunk is how much of the dump WriteBench formats before handing
// it to the writer.
const writeChunk = 32 << 10

// WriteBench dumps the registry in `go test -bench` line format, so
// metrics can ride the same tooling as performance numbers:
//
//	Benchmark<prefix>/<layer>/<name>/<node> 1 <value> <unit>...
//
// Counters emit one (value, "count") pair; gauges one (value, "value")
// pair; histograms a pair list (count, sum, mean, p50, p99, max).
// Output is sorted and all-integer except gauges, so it is
// byte-identical for equal registries.  Lines are formatted into one
// reused buffer and reach w in chunks of about writeChunk bytes.
func (r *Registry) WriteBench(w io.Writer, prefix string) error {
	if r == nil {
		return nil
	}
	r.Order()
	var err error
	buf := make([]byte, 0, writeChunk+512)
	var head []byte // "Benchmark<prefix>/<layer>/<name>/", once per family
	visit := func(node int, v int64, g *Gauge, h *Histogram) {
		if err != nil {
			return
		}
		buf = append(buf, head...)
		// Node labels avoid '-': benchmark-format tooling (benchstat and
		// kin) strips a trailing -<digits>, go test's GOMAXPROCS suffix,
		// from benchmark names.
		if node == NodeWide {
			buf = append(buf, "all 1 "...)
		} else {
			buf = append(buf, 'n')
			buf = strconv.AppendInt(buf, int64(node), 10)
			buf = append(buf, " 1 "...)
		}
		switch {
		case g != nil:
			buf = strconv.AppendFloat(buf, g.v, 'g', -1, 64)
			buf = append(buf, " value\n"...)
		case h != nil:
			for _, p := range [...]struct {
				v    int64
				unit string
			}{
				{h.count, " count "}, {h.sum, " sum "}, {safeDiv(h.sum, h.count), " mean "},
				{h.Quantile(0.50), " p50 "}, {h.Quantile(0.99), " p99 "}, {h.max, " max\n"},
			} {
				buf = strconv.AppendInt(buf, p.v, 10)
				buf = append(buf, p.unit...)
			}
		default:
			buf = strconv.AppendInt(buf, v, 10)
			buf = append(buf, " count\n"...)
		}
		if len(buf) >= writeChunk {
			_, err = w.Write(buf)
			buf = buf[:0]
		}
	}
	for _, f := range r.families {
		head = append(head[:0], "Benchmark"...)
		head = append(head, prefix...)
		head = append(head, '/')
		head = append(head, f.layer...)
		head = append(head, '/')
		head = append(head, f.name...)
		head = append(head, '/')
		f.each(visit)
		if err != nil {
			return err
		}
	}
	if len(buf) > 0 {
		_, err = w.Write(buf)
	}
	return err
}

func safeDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}
