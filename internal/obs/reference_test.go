package obs

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// refRegistry is the registry as it stood before families: three maps
// keyed by (node, layer, name), a snapshot that collects them in map
// order and sort.Slices by string compare, and a dump that formats each
// line through fmt.  It is kept here, verbatim in everything that
// decides a byte, as the definition of the dump format and order that
// Registry must reproduce.
type refRegistry struct {
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
	hists    map[Key]*Histogram
}

func newRefRegistry() *refRegistry {
	return &refRegistry{
		counters: make(map[Key]*Counter),
		gauges:   make(map[Key]*Gauge),
		hists:    make(map[Key]*Histogram),
	}
}

func refLess(k, o Key) bool {
	if k.Layer != o.Layer {
		return k.Layer < o.Layer
	}
	if k.Name != o.Name {
		return k.Name < o.Name
	}
	return k.Node < o.Node
}

func refNodeLabel(k Key) string {
	if k.Node == NodeWide {
		return "all"
	}
	return "n" + strconv.Itoa(k.Node)
}

func (r *refRegistry) Counter(node int, layer, name string) *Counter {
	k := Key{Node: node, Layer: layer, Name: name}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

func (r *refRegistry) Gauge(node int, layer, name string) *Gauge {
	k := Key{Node: node, Layer: layer, Name: name}
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

func (r *refRegistry) Histogram(node int, layer, name string) *Histogram {
	k := Key{Node: node, Layer: layer, Name: name}
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

func (r *refRegistry) Merge(o *refRegistry) {
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

func (r *refRegistry) Snapshot() []Metric {
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
			return refLess(out[i].Key, out[j].Key)
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

func (r *refRegistry) WriteBench(w io.Writer, prefix string) error {
	for _, m := range r.Snapshot() {
		var err error
		name := fmt.Sprintf("Benchmark%s/%s/%s/%s 1", prefix, m.Key.Layer, m.Key.Name, refNodeLabel(m.Key))
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

// both drives a Registry and the reference through the same calls.
type both struct {
	got *Registry
	ref *refRegistry
}

func newBoth() both { return both{NewRegistry(), newRefRegistry()} }

// check requires the two to agree on the snapshot and, byte for byte,
// on the dump.
func (b both) check(t *testing.T, what string) {
	t.Helper()
	gs, rs := b.got.Snapshot(), b.ref.Snapshot()
	if !reflect.DeepEqual(gs, rs) {
		for i := range rs {
			if i >= len(gs) || !reflect.DeepEqual(gs[i], rs[i]) {
				t.Fatalf("%s: snapshot differs at %d of %d/%d: got %+v, want %+v", what, i, len(gs), len(rs), gs[min(i, len(gs)-1)], rs[i])
			}
		}
		t.Fatalf("%s: snapshot has %d metrics, want %d", what, len(gs), len(rs))
	}
	var gb, rb bytes.Buffer
	if err := b.got.WriteBench(&gb, "P/s1"); err != nil {
		t.Fatal(err)
	}
	if err := b.ref.WriteBench(&rb, "P/s1"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), rb.Bytes()) {
		t.Fatalf("%s: dump differs (%d vs %d bytes)", what, gb.Len(), rb.Len())
	}
}

// fill applies n random operations: all three kinds, keys that collide
// across kinds (one name pool for all), node-wide series, a dense node
// range wide enough to push a family past scanMax and a sparse one that
// never gets there, names whose string order is not their numeric order,
// handles taken through the registry and through a family.
func (b both) fill(rng *rand.Rand, n int) {
	layers := []string{"simnet", "byz", "b"}
	names := []string{"link_n1_bytes", "link_n10_bytes", "link_n2_bytes", "x", "commits", "commit"}
	node := func() int {
		switch rng.Intn(10) {
		case 0:
			return NodeWide
		case 1, 2:
			return rng.Intn(1 << 40) // sparse
		default:
			return rng.Intn(3 * scanMax) // dense
		}
	}
	for i := 0; i < n; i++ {
		layer, name, nd := layers[rng.Intn(len(layers))], names[rng.Intn(len(names))], node()
		viaFamily := rng.Intn(2) == 0
		switch rng.Intn(4) {
		case 0, 1:
			v := rng.Int63n(1000) - 10
			if viaFamily {
				b.got.CounterFamily(layer, name).At(nd).Add(v)
			} else {
				b.got.Counter(nd, layer, name).Add(v)
			}
			b.ref.Counter(nd, layer, name).Add(v)
		case 2:
			v := rng.NormFloat64() * 1e3
			if viaFamily {
				b.got.GaugeFamily(layer, name).At(nd).Add(v)
			} else {
				b.got.Gauge(nd, layer, name).Add(v)
			}
			b.ref.Gauge(nd, layer, name).Add(v)
		case 3:
			v := rng.Int63n(1 << uint(rng.Intn(40)))
			if viaFamily {
				b.got.HistogramFamily(layer, name).At(nd).Observe(v)
			} else {
				b.got.Histogram(nd, layer, name).Observe(v)
			}
			b.ref.Histogram(nd, layer, name).Observe(v)
		}
	}
}

// TestRegistryMatchesReference is the byte-identity gate for the
// family-indexed registry: seeded random registries must snapshot and
// dump exactly as the map-keyed reference does — freshly built, after
// more series arrive behind a dump that already ordered the rest, and
// merged in a shuffled order.
func TestRegistryMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		parts := make([]both, 1+rng.Intn(4))
		for i := range parts {
			parts[i] = newBoth()
			parts[i].fill(rng, rng.Intn(600))
			parts[i].check(t, fmt.Sprintf("seed %d part %d", seed, i))
			parts[i].fill(rng, rng.Intn(300))
			parts[i].check(t, fmt.Sprintf("seed %d part %d, refilled", seed, i))
		}
		merged := newBoth()
		merged.fill(rng, rng.Intn(100))
		for _, i := range rng.Perm(len(parts)) {
			merged.got.Merge(parts[i].got)
			merged.ref.Merge(parts[i].ref)
		}
		merged.check(t, fmt.Sprintf("seed %d merged", seed))
	}

	empty := newBoth()
	empty.check(t, "empty")
	var nilReg *Registry
	var buf bytes.Buffer
	if err := nilReg.WriteBench(&buf, "x"); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry dumped %d bytes, err %v", buf.Len(), err)
	}
}

// TestCounterValueCreatesNothing: reading must never add to the dump —
// not a series, and not an empty family either.
func TestCounterValueCreatesNothing(t *testing.T) {
	r := NewRegistry()
	r.Counter(3, "byz", "commits").Add(7)
	r.Gauge(4, "byz", "depth").Set(1)
	for _, probe := range []struct {
		node        int
		layer, name string
		want        int64
	}{
		{3, "byz", "commits", 7},
		{4, "byz", "commits", 0}, // family exists, node does not
		{4, "byz", "depth", 0},   // a gauge lives there, no counter
		{3, "byz", "nothing", 0}, // no such family
		{3, "nolayer", "commits", 0},
	} {
		if got := r.CounterValue(probe.node, probe.layer, probe.name); got != probe.want {
			t.Fatalf("CounterValue(%d, %s, %s) = %d, want %d", probe.node, probe.layer, probe.name, got, probe.want)
		}
	}
	if series, families := r.Order(); series != 2 || families != 2 {
		t.Fatalf("after reads: %d series in %d families, want 2 in 2", series, families)
	}
}

// failAfter accepts n writes, then fails.
type failAfter struct{ n, writes int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.writes++; f.writes > f.n {
		return 0, fmt.Errorf("injected: write %d failed", f.writes)
	}
	return len(p), nil
}

// TestWriteBenchStopsAtWriteError: the dump reaches the writer in
// chunks, so an error can surface mid-dump or on the final partial
// chunk; either way WriteBench returns it and writes nothing more.
func TestWriteBenchStopsAtWriteError(t *testing.T) {
	r := NewRegistry()
	f := r.CounterFamily("layer", "a_name_long_enough_to_fill_chunks_quickly")
	for node := 0; node < 4000; node++ { // ~70 bytes a line: several chunks
		f.At(node).Add(int64(node))
	}
	all := &failAfter{n: 1 << 30}
	if err := r.WriteBench(all, "p"); err != nil {
		t.Fatal(err)
	}
	chunks := all.writes
	if chunks < 3 {
		t.Fatalf("the dump is only %d chunks; the test needs a middle one", chunks)
	}
	for _, ok := range []int{0, 1, chunks - 1} {
		w := &failAfter{n: ok}
		if err := r.WriteBench(w, "p"); err == nil {
			t.Fatalf("write error after %d good chunks was swallowed", ok)
		}
		if w.writes != ok+1 {
			t.Fatalf("after the failed write %d, WriteBench wrote again (%d writes)", ok+1, w.writes)
		}
	}
}
