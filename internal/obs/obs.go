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
// Hot-path cost.  Layers resolve handles (Counter, Gauge, Histogram)
// once at instrumentation time and bump them with plain integer
// arithmetic; a nil handle (uninstrumented run) makes every method a
// no-op, so the layers carry no conditional wiring of their own.  A
// layer whose series multiply with the world — one per replica —
// resolves a family handle (CounterFamily) once per name and creates
// each series with At(node): an integer lookup and an append, no
// string hashed.  A layer that already keeps a count in storage of
// its own — simnet's per-link bytes — does not copy it into Counters:
// it serves the family through CounterSource, registered from an
// OnRead hook, and the registry reads the storage only when it is read.
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

// scanMax is the largest series a family looks up by scanning its
// entries; above it the family keeps a node index.  Small families
// stay below it; per-replica families (tens of thousands of nodes)
// cross it once and probe an int-keyed map thereafter.
const scanMax = 32

// entry is one series of a family: the node it is attributed to and
// the value its handles point at.
type entry[T any] struct {
	node int
	v    *T
}

// series holds one family's values of one kind.  Entries are appended
// in creation order and sorted in place, by node, when a dump asks for
// them: position carries no meaning, handles point at the values.
type series[T any] struct {
	entries []entry[T]
	index   map[int]*T // nil while len(entries) <= scanMax
	sorted  bool       // entries ascend by node
}

// get returns the node's value, or nil when the series has none.
func (s *series[T]) get(node int) *T {
	if s.index != nil {
		return s.index[node]
	}
	for i := range s.entries {
		if s.entries[i].node == node {
			return s.entries[i].v
		}
	}
	return nil
}

// at is get-or-create.
func (s *series[T]) at(node int) *T {
	if v := s.get(node); v != nil {
		return v
	}
	n := len(s.entries)
	v := new(T)
	s.sorted = n == 0 || (s.sorted && s.entries[n-1].node < node)
	s.entries = append(s.entries, entry[T]{node, v})
	switch {
	case s.index != nil:
		s.index[node] = v
	case n == scanMax:
		s.index = make(map[int]*T, 2*scanMax)
		for _, e := range s.entries {
			s.index[e.node] = e.v
		}
	}
	return v
}

func (s *series[T]) sort() {
	if !s.sorted {
		slices.SortFunc(s.entries, func(a, b entry[T]) int { return cmp.Compare(a.node, b.node) })
		s.sorted = true
	}
}

// family is every series that shares one (layer, name), of all three
// kinds: dump order interleaves the kinds by node, so they sort
// together.  Layer and name are stored — and compared — once per
// family, not once per series.
type family struct {
	layer, name string
	counters    series[Counter]
	gauges      series[Gauge]
	hists       series[Histogram]
	// sources serve more of the family's counters (CounterSource).
	sources []Source
}

// each visits the family's series in dump order: ascending node, and
// counter before gauge before histogram where one node has several
// kinds.  A visit is a gauge when g is non-nil, a histogram when h is,
// and otherwise a counter whose value is v.  The series must be sorted
// (Registry.Order).
func (f *family) each(visit func(node int, v int64, g *Gauge, h *Histogram)) {
	cs, gs, hs := f.counters.entries, f.gauges.entries, f.hists.entries
	if len(f.sources) > 0 {
		if len(f.sources) == 1 && len(cs)+len(gs)+len(hs) == 0 {
			f.sources[0].Each(func(node int, v int64) { visit(node, v, nil, nil) })
			return
		}
		cs = f.combined()
	}
	for len(cs)+len(gs)+len(hs) > 0 {
		switch {
		case len(cs) > 0 && (len(gs) == 0 || cs[0].node <= gs[0].node) && (len(hs) == 0 || cs[0].node <= hs[0].node):
			visit(cs[0].node, cs[0].v.v, nil, nil)
			cs = cs[1:]
		case len(gs) > 0 && (len(hs) == 0 || gs[0].node <= hs[0].node):
			visit(gs[0].node, 0, gs[0].v, nil)
			gs = gs[1:]
		default:
			visit(hs[0].node, 0, nil, hs[0].v)
			hs = hs[1:]
		}
	}
}

// combined is the family's counters when sources feed it beside other
// sources or plain counters (several networks on one registry, a Merge
// into a sourced family): every value summed per node, in node order.
func (f *family) combined() []entry[Counter] {
	var s series[Counter]
	for _, e := range f.counters.entries {
		s.at(e.node).Add(e.v.v)
	}
	for _, src := range f.sources {
		src.Each(func(node int, v int64) { s.at(node).Add(v) })
	}
	s.sort()
	return s.entries
}

// len is how many series a dump of the family lists.
func (f *family) len() int {
	n := len(f.gauges.entries) + len(f.hists.entries)
	switch {
	case len(f.sources) == 0:
		n += len(f.counters.entries)
	case len(f.sources) == 1 && len(f.counters.entries) == 0:
		n += f.sources[0].Len()
	default:
		n += len(f.combined())
	}
	return n
}

// CounterFamily is a handle on every counter named (layer, name).  A
// layer that creates series per node resolves the family once and
// calls At per node: no string is hashed after that.  Methods on a nil
// family return nil handles.
type CounterFamily family

// At returns the node's counter, creating it on first use.
func (f *CounterFamily) At(node int) *Counter {
	if f == nil {
		return nil
	}
	return f.counters.at(node)
}

// GaugeFamily is the gauge counterpart of CounterFamily.
type GaugeFamily family

// At returns the node's gauge, creating it on first use.
func (f *GaugeFamily) At(node int) *Gauge {
	if f == nil {
		return nil
	}
	return f.gauges.at(node)
}

// HistogramFamily is the histogram counterpart of CounterFamily.
type HistogramFamily family

// At returns the node's histogram, creating it on first use.
func (f *HistogramFamily) At(node int) *Histogram {
	if f == nil {
		return nil
	}
	return f.hists.at(node)
}

// familyKey interns a family.
type familyKey struct{ layer, name string }

// Registry holds one simulator's metrics.  Handles are get-or-create:
// two layers asking for the same key share the value, which is how
// per-object rings aggregate into pool-wide counters.
//
// Series live in families, one per (layer, name); a series can only be
// created through its family (Counter, Gauge and Histogram go through
// it too) or served by one of its Sources, so the dump walks families
// and never meets a series it would have to place by hashing or
// comparing strings.
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

// CounterFamily returns the handle for every counter named (layer,
// name); a nil registry gives a nil handle.
func (r *Registry) CounterFamily(layer, name string) *CounterFamily {
	return (*CounterFamily)(r.family(layer, name))
}

// GaugeFamily returns the handle for every gauge named (layer, name).
func (r *Registry) GaugeFamily(layer, name string) *GaugeFamily {
	return (*GaugeFamily)(r.family(layer, name))
}

// HistogramFamily returns the handle for every histogram named (layer,
// name).
func (r *Registry) HistogramFamily(layer, name string) *HistogramFamily {
	return (*HistogramFamily)(r.family(layer, name))
}

// Source serves one family's counters from storage a layer keeps,
// instead of from Counter values.  The registry only reads it, and
// only while it is being read itself (Order, Snapshot, WriteBench,
// CounterValue, and Merge from it), after its OnRead hooks have run.
type Source interface {
	// Len is how many series Each visits.
	Len() int
	// Each visits (node, value) once per series, in ascending node order.
	Each(visit func(node int, v int64))
}

// CounterSource adds src to the counters named (layer, name).  It is
// the one way a series enters the dump other than through its family's
// At, and it is read-only: nothing writes through it.  Several sources,
// or a source and plain counters, under one name add per node.  A nil
// registry ignores the call.
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

// Counter returns the counter for (node, layer, name), creating it on
// first use.  A nil registry returns a nil (no-op) handle, so layers
// can resolve handles unconditionally.
func (r *Registry) Counter(node int, layer, name string) *Counter {
	return r.CounterFamily(layer, name).At(node)
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
	if c := f.counters.get(node); c != nil {
		v = c.v
	}
	for _, src := range f.sources {
		src.Each(func(n int, x int64) {
			if n == node {
				v += x
			}
		})
	}
	return v
}

// Gauge returns the gauge for (node, layer, name), creating it on
// first use; nil registry gives a nil handle.
func (r *Registry) Gauge(node int, layer, name string) *Gauge {
	return r.GaugeFamily(layer, name).At(node)
}

// Histogram returns the histogram for (node, layer, name), creating it
// on first use; nil registry gives a nil handle.
func (r *Registry) Histogram(node int, layer, name string) *Histogram {
	return r.HistogramFamily(layer, name).At(node)
}

// Merge folds another registry into this one: counters and gauges add,
// histograms merge.  Merging per-simulator registries in seed order
// yields the same totals at any worker count, because integer addition
// is associative and commutative — the float caveat does not arise for
// counters/histograms, and gauge addition across simulators is only
// meaningful for additive gauges (document per metric).
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	o.read()
	for _, of := range o.families {
		f := r.family(of.layer, of.name)
		for _, e := range of.counters.entries {
			f.counters.at(e.node).Add(e.v.v)
		}
		for _, src := range of.sources {
			src.Each(func(node int, v int64) { f.counters.at(node).Add(v) })
		}
		for _, e := range of.gauges.entries {
			f.gauges.at(e.node).v += e.v.v
		}
		for _, e := range of.hists.entries {
			f.hists.at(e.node).Merge(e.v)
		}
	}
}

// Order puts the registry in dump order — families by (layer, name),
// each family's series by node — and returns how many series and
// families it holds.  Snapshot and WriteBench order implicitly; a
// caller that reports the registry's size, or times ordering apart
// from formatting, calls Order first.  Order is integer sorts plus one
// string sort over the families, whatever the series count, and
// depends on no map's iteration order.
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
		f.counters.sort()
		f.gauges.sort()
		f.hists.sort()
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
		nh += len(f.hists.entries)
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
