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
// no-op, so the layers carry no conditional wiring of their own.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
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

func (k Key) less(o Key) bool {
	if k.Layer != o.Layer {
		return k.Layer < o.Layer
	}
	if k.Name != o.Name {
		return k.Name < o.Name
	}
	return k.Node < o.Node
}

// nodeLabel renders the node component for dumps.  Labels avoid '-'
// because benchmark-format tooling (benchstat and kin) strips a trailing
// -<digits> (the GOMAXPROCS suffix of go test) from benchmark names.
func (k Key) nodeLabel() string {
	if k.Node == NodeWide {
		return "all"
	}
	return "n" + strconv.Itoa(k.Node)
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

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a settable float value (queue depths, ratios).
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
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

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
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

// Registry holds one simulator's metrics.  Handles are get-or-create:
// two layers asking for the same key share the value, which is how
// per-object rings aggregate into pool-wide counters.
type Registry struct {
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
	hists    map[Key]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[Key]*Counter),
		gauges:   make(map[Key]*Gauge),
		hists:    make(map[Key]*Histogram),
	}
}

// Counter returns the counter for (node, layer, name), creating it on
// first use.  A nil registry returns a nil (no-op) handle, so layers
// can resolve handles unconditionally.
func (r *Registry) Counter(node int, layer, name string) *Counter {
	if r == nil {
		return nil
	}
	k := Key{Node: node, Layer: layer, Name: name}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// CounterValue reads a counter without creating it: a missing key
// reads as zero and leaves the registry untouched.  Invariant checks
// and tests use this so that *reading* a dump-visible metric can never
// add keys to the dump (Counter's get-or-create would).
func (r *Registry) CounterValue(node int, layer, name string) int64 {
	if r == nil {
		return 0
	}
	return r.counters[Key{Node: node, Layer: layer, Name: name}].Value()
}

// Gauge returns the gauge for (node, layer, name), creating it on
// first use; nil registry gives a nil handle.
func (r *Registry) Gauge(node int, layer, name string) *Gauge {
	if r == nil {
		return nil
	}
	k := Key{Node: node, Layer: layer, Name: name}
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for (node, layer, name), creating it
// on first use; nil registry gives a nil handle.
func (r *Registry) Histogram(node int, layer, name string) *Histogram {
	if r == nil {
		return nil
	}
	k := Key{Node: node, Layer: layer, Name: name}
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
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
	for k, c := range o.counters {
		r.Counter(k.Node, k.Layer, k.Name).Add(c.v)
	}
	for k, g := range o.gauges {
		r.Gauge(k.Node, k.Layer, k.Name).Add(g.v)
	}
	for k, h := range o.hists {
		r.Histogram(k.Node, k.Layer, k.Name).Merge(h)
	}
}

// Metric is one snapshotted value.
type Metric struct {
	Key  Key
	Kind string // "counter", "gauge", "hist"
	// Counter/histogram payloads.
	Count int64
	Sum   int64
	Min   int64
	Max   int64
	P50   int64
	P99   int64
	// Gauge payload.
	Value float64
}

// Snapshot returns every metric sorted by (layer, name, node) —
// deterministic regardless of map iteration or creation order.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for k, c := range r.counters {
		out = append(out, Metric{Key: k, Kind: "counter", Count: c.v})
	}
	for k, g := range r.gauges {
		out = append(out, Metric{Key: k, Kind: "gauge", Value: g.v})
	}
	for k, h := range r.hists {
		out = append(out, Metric{
			Key: k, Kind: "hist",
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key.less(out[j].Key)
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// WriteBench dumps the registry in `go test -bench` line format, so
// metrics can ride the same tooling as performance numbers:
//
//	Benchmark<prefix>/<layer>/<name>/<node> 1 <value> <unit>...
//
// Counters emit one (value, "count") pair; gauges one (value, "value")
// pair; histograms a pair list (count, sum, mean, p50, p99, max).
// Output is sorted and all-integer except gauges, so it is
// byte-identical for equal registries.
func (r *Registry) WriteBench(w io.Writer, prefix string) error {
	for _, m := range r.Snapshot() {
		var err error
		name := fmt.Sprintf("Benchmark%s/%s/%s/%s 1", prefix, m.Key.Layer, m.Key.Name, m.Key.nodeLabel())
		switch m.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "%s %d count\n", name, m.Count)
		case "gauge":
			_, err = fmt.Fprintf(w, "%s %s value\n", name, strconv.FormatFloat(m.Value, 'g', -1, 64))
		case "hist":
			_, err = fmt.Fprintf(w, "%s %d count %d sum %d mean %d p50 %d p99 %d max\n",
				name, m.Count, m.Sum, safeDiv(m.Sum, m.Count), m.P50, m.P99, m.Max)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func safeDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}
