// Package obs is the deterministic observability layer: counters,
// gauges and histograms keyed by (layer, name), plus a per-message
// trace ring (trace.go), all collected over simulated time.
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
//
// Dumps summarise.  A dump lists families, not entities: a family that
// counts one series per node or per link is listed as its exact total
// and one integer summary of its non-zero per-entity counts (how many,
// min, p50, p99, max), and no series that reads zero is listed, so a
// 100 000-node world dumps a few dozen series.  The paper's
// introspection (§4.7) likewise summarises local events before they
// leave the node.
package obs

import (
	"cmp"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"time"
)

// NodeWide is the entity a Source gives a series aggregated over all
// nodes rather than attributed to one node or link.
const NodeWide = -1

// Key identifies one family of metrics: which protocol layer reported
// it, and its name.
type Key struct {
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
	want := rank(q, h.count)
	cum := int64(0)
	for i, n := range h.buckets {
		cum += n
		if cum >= want {
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

// rank is the 1-based rank of the q-quantile among n sorted values.
func rank(q float64, n int64) int64 {
	return min(max(int64(q*float64(n)+0.5), 1), n)
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

// view is a family as a dump reads it: its counters' total over every
// series, node-wide and per entity; its gauges' sum; its histograms
// merged (nil when it has none); and its non-zero per-entity counts.
type view struct {
	total, gauge int64
	hist         *Histogram
	vals         []int64
}

// read reads f into v from its sources, reusing v.vals, so one scratch
// slice serves every family of every dump.
func (f *family) read(v *view) {
	v.total, v.gauge, v.hist, v.vals = 0, f.gauge(), nil, v.vals[:0]
	if f.hists != nil {
		v.hist = new(Histogram)
		for _, h := range f.hists {
			v.hist.Merge(h)
		}
	}
	// Count first, so the scratch grows once, to the size it needs: a
	// 100 000-node world's links are ≈ 300 000 values.
	src, n := f.counters(), 0
	src.Each(func(node int, x int64) {
		if node != NodeWide && x != 0 {
			n++
		}
	})
	v.vals = slices.Grow(v.vals, n)
	src.Each(func(node int, x int64) {
		v.total += x
		if node != NodeWide && x != 0 {
			v.vals = append(v.vals, x)
		}
	})
}

// gauge is the family's gauges summed.
func (f *family) gauge() (sum int64) {
	for _, g := range f.gauges {
		g.Each(func(_ int, v int64) { sum += v })
	}
	return sum
}

// each visits the series a dump lists of the view, in dump order —
// counter, gauge, histogram, summary — leaving out every one that is
// zero.  The summary is exact: it sorts v.vals, and its quantiles take
// the rank Histogram.Quantile takes.
func (v *view) each(key Key, visit func(Metric)) {
	if v.total != 0 {
		visit(Metric{Key: key, Kind: "counter", Count: v.total})
	}
	if v.gauge != 0 {
		visit(Metric{Key: key, Kind: "gauge", Value: float64(v.gauge)})
	}
	if h := v.hist; h.Count() != 0 {
		visit(Metric{Key: key, Kind: "hist", Count: h.count, Hist: &HistSummary{
			Sum: h.sum, Min: h.min, Max: h.max,
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		}})
	}
	if n := int64(len(v.vals)); n > 0 {
		slices.Sort(v.vals)
		s := &HistSummary{Min: v.vals[0], Max: v.vals[n-1], P50: v.vals[rank(0.50, n)-1], P99: v.vals[rank(0.99, n)-1]}
		for _, x := range v.vals {
			s.Sum += x
		}
		visit(Metric{Key: key, Kind: "summary", Count: n, Hist: s})
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

// frozen is a Source over fixed values: what combined returns, in
// entity order, and what Merge leaves on a family from another
// registry.
type frozen []point

func (s frozen) Each(visit func(node int, v int64)) {
	for _, p := range s {
		visit(p.node, p.v)
	}
}

// combined is the family's sources summed per entity, in entity order,
// so several networks on one registry, or a Merge beside a layer's own
// source, read as one series per entity.
func (f *family) combined() frozen {
	var all frozen
	for _, src := range f.sources {
		src.Each(func(node int, v int64) { all = append(all, point{node, v}) })
	}
	slices.SortFunc(all, func(a, b point) int { return cmp.Compare(a.node, b.node) })
	sum := all[:0]
	for _, p := range all {
		if n := len(sum); n > 0 && sum[n-1].node == p.node {
			sum[n-1].v += p.v
		} else {
			sum = append(sum, p)
		}
	}
	return sum
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
	// view is the scratch every read of a family reuses, so a dump
	// holds one slice of per-entity values however many families and
	// reads it makes.
	view view
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
// Merge from it).
type Source interface {
	// Each visits (entity, value) once per series, in whatever order
	// the layer keeps them, as long as it follows from the run alone
	// (no map iteration).  An entity is a node, or whatever else the
	// family counts one series for (simnet's links), or NodeWide; a
	// source may leave out an entity whose value is zero.
	Each(visit func(entity int, v int64))
}

// Each makes a Counter the Source of its one node-wide series.
func (c *Counter) Each(visit func(node int, v int64)) { visit(NodeWide, c.v) }

// Value is a Source over one node-wide count or gauge a layer keeps,
// read when the registry is.
type Value func() int64

func (v Value) Each(visit func(node int, v int64)) { visit(NodeWide, v()) }

// CounterSource adds src to the counters named (layer, name).  It is
// how a count a layer keeps enters the dump, and it is read-only:
// nothing writes through it.  Several sources under one name add per
// entity.  A nil registry ignores the call.
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

// CounterValue reads one entity's counter — a node's or a link's, or
// NodeWide — without creating it: a missing key reads as zero and
// creates no series.  Invariant checks and tests use
// this so that *reading* a dump-visible metric can never add keys to
// the dump (Counter's get-or-create would).
func (r *Registry) CounterValue(entity int, layer, name string) int64 {
	if r == nil {
		return 0
	}
	f := r.byName[familyKey{layer, name}]
	if f == nil {
		return 0
	}
	var v int64
	for _, src := range f.sources {
		src.Each(func(n int, x int64) {
			if n == entity {
				v += x
			}
		})
	}
	return v
}

// Merge folds another registry into this one, read as it stands now:
// its node-wide counters add into this registry's own Counter, its
// per-entity ones join as one frozen source, its histograms fold into
// this registry's own Histogram and its gauge sum joins as a frozen
// gauge source.  Every value is an integer, so merging in seed order
// yields the same totals at any worker count.  Gauge sources sum, here
// as within one registry, so a gauge must be additive: the two there
// are, workload/objects and introspect/tier_replicas, are counts.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
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
// and returns how many series a dump lists and how many families the
// registry holds.  Snapshot and WriteBench order implicitly; a caller
// that reports the dump's size, or times reading apart from formatting,
// calls Order first.  Ordering is one string sort over the families,
// whatever the series count, and depends on no map's iteration order;
// counting reads every family once, as a dump does.
func (r *Registry) Order() (series, families int) {
	if r == nil {
		return 0, 0
	}
	r.each(func(Metric) { series++ })
	return series, len(r.families)
}

// sort sorts the families by (layer, name).
func (r *Registry) sort() {
	if !r.ordered {
		slices.SortFunc(r.families, func(a, b *family) int {
			if c := cmp.Compare(a.layer, b.layer); c != 0 {
				return c
			}
			return cmp.Compare(a.name, b.name)
		})
		r.ordered = true
	}
}

// each visits every series a dump lists, in dump order: families by
// (layer, name), and within a family as view.each does.
func (r *Registry) each(visit func(Metric)) {
	r.sort()
	for _, f := range r.families {
		f.read(&r.view)
		r.view.each(Key{f.layer, f.name}, visit)
	}
}

// Metric is one series of a dump.  Every series is one family's, over
// all its entities: its counters' total ("counter"), its gauges' sum
// ("gauge"), its histograms merged ("hist"), or the exact distribution
// of its non-zero per-entity counts ("summary": how many entities in
// Count, their sum, min, p50, p99 and max in Hist).
type Metric struct {
	Key  Key
	Kind string // "counter", "gauge", "hist", "summary"
	// Counter total, histogram count, or summary entity count.
	Count int64
	// Gauge payload: the gauge sources' sum, as a float.
	Value float64
	// Hist is the rest of a histogram's or a summary's payload; nil
	// for other kinds.
	Hist *HistSummary
}

// HistSummary is a snapshotted histogram beyond its count, or a
// summary's values.
type HistSummary struct {
	Sum, Min, Max, P50, P99 int64
}

// Snapshot returns every series a dump lists, in dump order.  No series
// is zero: a counter or gauge that reads zero, a histogram with no
// observations, and a family with no non-zero per-entity count list
// nothing, so absent means zero.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	var out []Metric
	r.each(func(m Metric) { out = append(out, m) })
	return out
}

// writeChunk is how much of the dump WriteBench formats before handing
// it to the writer.
const writeChunk = 32 << 10

// WriteBench dumps the registry — the series Snapshot returns — in `go
// test -bench` line format, so metrics can ride the same tooling as
// performance numbers:
//
//	Benchmark<prefix>/<layer>/<name>/all 1 <value> <unit>...
//	Benchmark<prefix>/<layer>/<name>/each 1 <entities> entities <min> min <p50> p50 <p99> p99 <max> max
//
// Counters emit one (value, "count") pair; gauges one (value, "value")
// pair; histograms a pair list (count, sum, mean, p50, p99, max); a
// family's per-entity summary the second line's list.  Output is sorted
// and all-integer — a gauge is an integer sum, though formatted as a
// float — so it is byte-identical for equal registries.  Lines are
// formatted into one reused buffer and reach w in chunks of about
// writeChunk bytes.
func (r *Registry) WriteBench(w io.Writer, prefix string) error {
	if r == nil {
		return nil
	}
	var err error
	buf := make([]byte, 0, writeChunk+512)
	r.each(func(m Metric) {
		if err != nil {
			return
		}
		buf = append(buf, "Benchmark"...)
		buf = append(buf, prefix...)
		buf = append(buf, '/')
		buf = append(buf, m.Key.Layer...)
		buf = append(buf, '/')
		buf = append(buf, m.Key.Name...)
		// Labels avoid '-': benchmark-format tooling (benchstat and kin)
		// strips a trailing -<digits>, go test's GOMAXPROCS suffix, from
		// benchmark names.
		if m.Kind == "summary" {
			buf = append(buf, "/each 1 "...)
		} else {
			buf = append(buf, "/all 1 "...)
		}
		switch m.Kind {
		case "gauge":
			buf = strconv.AppendFloat(buf, m.Value, 'g', -1, 64)
			buf = append(buf, " value\n"...)
		case "hist":
			buf = appendPairs(buf, pair{m.Count, " count "}, pair{m.Hist.Sum, " sum "}, pair{m.Hist.Sum / m.Count, " mean "},
				pair{m.Hist.P50, " p50 "}, pair{m.Hist.P99, " p99 "}, pair{m.Hist.Max, " max\n"})
		case "summary":
			buf = appendPairs(buf, pair{m.Count, " entities "}, pair{m.Hist.Min, " min "},
				pair{m.Hist.P50, " p50 "}, pair{m.Hist.P99, " p99 "}, pair{m.Hist.Max, " max\n"})
		default:
			buf = strconv.AppendInt(buf, m.Count, 10)
			buf = append(buf, " count\n"...)
		}
		if len(buf) >= writeChunk {
			_, err = w.Write(buf)
			buf = buf[:0]
		}
	})
	if err == nil && len(buf) > 0 {
		_, err = w.Write(buf)
	}
	return err
}

// pair is one value of a dump line and the unit after it.
type pair struct {
	v    int64
	unit string
}

func appendPairs(buf []byte, pairs ...pair) []byte {
	for _, p := range pairs {
		buf = strconv.AppendInt(buf, p.v, 10)
		buf = append(buf, p.unit...)
	}
	return buf
}
