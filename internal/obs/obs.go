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
// Hot-path cost.  Every series a layer keeps — its Stats, simnet's
// per-link bytes, epidemic's counts per hosting node, the workload
// engine's latency histograms — is read through a source, so a value
// has one copy, read only when the registry is.  Values only the
// registry keeps, which many instances share, are node-wide handles
// (Counter, Histogram) resolved once at instrumentation time and bumped
// with plain integer arithmetic; a nil handle (uninstrumented run)
// makes every method a no-op.
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

// family is every series that shares one (layer, name): the counters
// its sources serve, the gauges that sum into its node-wide gauge and
// the histograms that merge into its node-wide histogram, the
// registry's own counter and histogram among them.  Layer and name are
// stored — and compared — once per family, not once per series.
type family struct {
	layer, name string
	counter     *Counter   // also in sources
	hist        *Histogram // also in hists
	sources     []Source
	gauges      []Source // each one node-wide series
	hists       []*Histogram
}

// each visits the family's series in dump order — by node, and at one
// node counter, gauge, histogram.  kind is the series' Metric.Kind, v a
// counter's or a gauge's value, and h a histogram.
func (f *family) each(visit func(node int, kind string, v int64, h *Histogram)) {
	if f.gauges == nil && f.hists == nil {
		f.counters().Each(func(node int, v int64) { visit(node, "counter", v, nil) })
		return
	}
	// Few families hold a gauge or histogram, and none in a real dump
	// a counter too: sum their counters to put the node-wide one first.
	pts := f.combined()
	if len(pts) > 0 && pts[0].node == NodeWide {
		visit(NodeWide, "counter", pts[0].v, nil)
		pts = pts[1:]
	}
	if f.gauges != nil {
		visit(NodeWide, "gauge", f.gauge(), nil)
	}
	if f.hists != nil {
		visit(NodeWide, "hist", 0, f.histogram())
	}
	for _, p := range pts {
		visit(p.node, "counter", p.v, nil)
	}
}

// gauge is the family's gauges summed.
func (f *family) gauge() (sum int64) {
	for _, g := range f.gauges {
		g.Each(func(_ int, v int64) { sum += v })
	}
	return sum
}

// histogram is the family's histograms — the registry's own, a layer's,
// several auditors' on one registry — merged into a new one.
func (f *family) histogram() *Histogram {
	sum := new(Histogram)
	for _, h := range f.hists {
		sum.Merge(h)
	}
	return sum
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
	if f.gauges != nil {
		n++
	}
	if f.hists != nil {
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
// Series live in families, one per (layer, name), and every series is
// read from what a layer or the registry keeps — counters from Sources,
// gauges summed, histograms merged — so the dump walks families and
// never meets a series it would have to place by hashing or comparing
// strings.
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

// Source serves one family's counters, or one of its gauges, from
// storage a layer keeps.  The registry only reads it, and only while it
// is being read itself (Order, Snapshot, WriteBench, CounterValue, and
// Merge from it), after its OnRead hooks have run.
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

// Value is a Source over one node-wide count or gauge a layer keeps,
// read when the registry is.
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

// GaugeSource adds v to the gauges named (layer, name), which dump as
// one node-wide series: their sum, formatted as a float.  A nil
// registry ignores the call.
func (r *Registry) GaugeSource(layer, name string, v Value) {
	if f := r.family(layer, name); f != nil {
		f.gauges = append(f.gauges, v)
	}
}

// HistogramSource adds h, a histogram a layer keeps, to the histograms
// named (layer, name), which dump as one node-wide series: their merge.
// The registry never writes into h.  A nil registry ignores the call.
func (r *Registry) HistogramSource(layer, name string, h *Histogram) {
	if f := r.family(layer, name); f != nil {
		f.hists = append(f.hists, h)
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

// Histogram returns the registry's own node-wide histogram named
// (layer, name), creating it on first use as one of the family's
// histograms.  A nil registry returns a nil (no-op) handle.
func (r *Registry) Histogram(layer, name string) *Histogram {
	f := r.family(layer, name)
	if f == nil {
		return nil
	}
	if f.hist == nil {
		f.hist = new(Histogram)
		f.hists = append(f.hists, f.hist)
	}
	return f.hist
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

// Merge folds another registry into this one, read as it stands now:
// its node-wide counters add into this registry's own Counter, its
// per-node ones join as one frozen source, its histograms fold into
// this registry's own Histogram and its gauge sum joins as a frozen
// gauge source.  Every value is an integer, so merging in seed order
// yields the same totals at any worker count.  Gauge sources sum, here
// as within one registry, so a gauge must be additive: the two there
// are, workload/objects and introspect/tier_replicas, are counts.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	o.read()
	for _, of := range o.families {
		f := r.family(of.layer, of.name)
		if of.gauges != nil {
			f.gauges = append(f.gauges, frozen{{NodeWide, of.gauge()}})
		}
		for _, h := range of.hists {
			r.Histogram(of.layer, of.name).Merge(h)
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
	// Gauge payload: the gauge sources' sum, as a float.
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
		if f.hists != nil {
			nh++
		}
	}
	hists := make([]HistSummary, 0, nh) // one array behind every Hist
	var key Key
	visit := func(node int, kind string, v int64, h *Histogram) {
		key.Node = node
		switch kind {
		case "gauge":
			out = append(out, Metric{Key: key, Kind: kind, Value: float64(v)})
		case "hist":
			hists = append(hists, HistSummary{
				Sum: h.sum, Min: h.min, Max: h.max,
				P50: h.Quantile(0.50), P99: h.Quantile(0.99),
			})
			out = append(out, Metric{Key: key, Kind: kind, Count: h.count, Hist: &hists[len(hists)-1]})
		default:
			out = append(out, Metric{Key: key, Kind: kind, Count: v})
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
// Output is sorted and all-integer — a gauge is an integer sum, though
// formatted as a float — so it is byte-identical for equal registries.
// Lines are formatted into one reused buffer and reach w in chunks of
// about writeChunk bytes.
func (r *Registry) WriteBench(w io.Writer, prefix string) error {
	if r == nil {
		return nil
	}
	r.Order()
	var err error
	buf := make([]byte, 0, writeChunk+512)
	var head []byte // "Benchmark<prefix>/<layer>/<name>/", once per family
	visit := func(node int, kind string, v int64, h *Histogram) {
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
		switch kind {
		case "gauge":
			buf = strconv.AppendFloat(buf, float64(v), 'g', -1, 64)
			buf = append(buf, " value\n"...)
		case "hist":
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
