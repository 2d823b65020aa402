package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// refRegistry is the registry as it stood before families: three maps
// keyed by (node, layer, name), and a snapshot that collects them in
// map order and sort.Slices by string compare, then rolls each family
// into its dump series, and a dump that formats each line through fmt.
// It is kept here as the definition of the dump format, order and
// summaries that Registry must reproduce.  Its gauges are plain values,
// set by whoever drives it.
type refRegistry struct {
	counters map[refKey]*Counter
	gauges   map[refKey]float64
	hists    map[refKey]*Histogram
}

// refKey is one series before a dump rolls it into its family's.
type refKey struct {
	Node        int
	Layer, Name string
}

func newRefRegistry() *refRegistry {
	return &refRegistry{
		counters: make(map[refKey]*Counter),
		gauges:   make(map[refKey]float64),
		hists:    make(map[refKey]*Histogram),
	}
}

func (r *refRegistry) Counter(node int, layer, name string) *Counter {
	k := refKey{Node: node, Layer: layer, Name: name}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

func (r *refRegistry) Histogram(node int, layer, name string) *Histogram {
	k := refKey{Node: node, Layer: layer, Name: name}
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
		r.gauges[k] += g
	}
	for k, h := range o.hists {
		r.Histogram(k.Node, k.Layer, k.Name).Merge(h)
	}
}

// refQuantile is the q-quantile of sorted values by nearest rank,
// rounded half up: the rank Histogram.Quantile takes.
func refQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Floor(q*float64(len(sorted)) + 0.5))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// Snapshot lists each family's counter total over every node, its
// gauge, its histogram and the summary of its non-zero per-node
// counters, leaving out each that is zero.
func (r *refRegistry) Snapshot() []Metric {
	total := make(map[Key]int64)
	perNode := make(map[Key][]int64)
	for k, c := range r.counters {
		fk := Key{k.Layer, k.Name}
		total[fk] += c.v
		if k.Node != NodeWide && c.v != 0 {
			perNode[fk] = append(perNode[fk], c.v)
		}
	}
	var out []Metric
	for k, v := range total {
		if v != 0 {
			out = append(out, Metric{Key: k, Kind: "counter", Count: v})
		}
	}
	for k, g := range r.gauges {
		if g != 0 {
			out = append(out, Metric{Key: Key{k.Layer, k.Name}, Kind: "gauge", Value: g})
		}
	}
	for k, h := range r.hists {
		if h.count != 0 {
			out = append(out, Metric{
				Key: Key{k.Layer, k.Name}, Kind: "hist", Count: h.count,
				Hist: &HistSummary{
					Sum: h.sum, Min: h.min, Max: h.max,
					P50: h.Quantile(0.50), P99: h.Quantile(0.99),
				},
			})
		}
	}
	for k, vals := range perNode {
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := &HistSummary{Min: vals[0], Max: vals[len(vals)-1], P50: refQuantile(vals, 0.50), P99: refQuantile(vals, 0.99)}
		for _, v := range vals {
			s.Sum += v
		}
		out = append(out, Metric{Key: k, Kind: "summary", Count: int64(len(vals)), Hist: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			if out[i].Key.Layer != out[j].Key.Layer {
				return out[i].Key.Layer < out[j].Key.Layer
			}
			return out[i].Key.Name < out[j].Key.Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

func (r *refRegistry) WriteBench(w io.Writer, prefix string) error {
	for _, m := range r.Snapshot() {
		var err error
		name := fmt.Sprintf("Benchmark%s/%s/%s/all 1", prefix, m.Key.Layer, m.Key.Name)
		switch m.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "%s %d count\n", name, m.Count)
		case "gauge":
			_, err = fmt.Fprintf(w, "%s %s value\n", name, strconv.FormatFloat(m.Value, 'g', -1, 64))
		case "hist":
			_, err = fmt.Fprintf(w, "%s %d count %d sum %d mean %d p50 %d p99 %d max\n",
				name, m.Count, m.Hist.Sum, m.Hist.Sum/m.Count, m.Hist.P50, m.Hist.P99, m.Hist.Max)
		case "summary":
			_, err = fmt.Fprintf(w, "Benchmark%s/%s/%s/each 1 %d entities %d min %d p50 %d p99 %d max\n",
				prefix, m.Key.Layer, m.Key.Name, m.Count, m.Hist.Min, m.Hist.P50, m.Hist.P99, m.Hist.Max)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// kept stands in for a layer that keeps values in storage of its own
// and serves them through sources: per-node counts by family and node,
// node-wide counts and gauges by family, each served through a Value,
// and node-wide histograms by family.  Each source is registered when
// its first value is kept, as epidemic's tally registers its counts at
// the first hosting node.
type kept struct {
	reg     *Registry
	vals    map[familyKey]map[int]int64
	scalars map[familyKey]*int64
	gauges  map[familyKey]*int64
	hists   map[familyKey]*Histogram
}

func newKept(reg *Registry) *kept {
	return &kept{
		reg:     reg,
		vals:    make(map[familyKey]map[int]int64),
		scalars: make(map[familyKey]*int64),
		gauges:  make(map[familyKey]*int64),
		hists:   make(map[familyKey]*Histogram),
	}
}

// set sets a gauge and returns by how much it moved.
func (k *kept) set(layer, name string, v int64) int64 {
	fk := familyKey{layer, name}
	if k.gauges[fk] == nil {
		g := new(int64)
		k.gauges[fk] = g
		k.reg.GaugeSource(layer, name, Value(func() int64 { return *g }))
	}
	delta := v - *k.gauges[fk]
	*k.gauges[fk] = v
	return delta
}

func (k *kept) observe(layer, name string, v int64) {
	fk := familyKey{layer, name}
	if k.hists[fk] == nil {
		k.hists[fk] = new(Histogram)
		k.reg.HistogramSource(layer, name, k.hists[fk])
	}
	k.hists[fk].Observe(v)
}

func (k *kept) add(node int, layer, name string, v int64) {
	fk := familyKey{layer, name}
	if node == NodeWide {
		if k.scalars[fk] == nil {
			p := new(int64)
			k.scalars[fk] = p
			k.reg.CounterSource(layer, name, Value(func() int64 { return *p }))
		}
		*k.scalars[fk] += v
		return
	}
	if k.vals[fk] == nil {
		k.vals[fk] = make(map[int]int64)
		k.reg.CounterSource(layer, name, keptSource(k.vals[fk]))
	}
	k.vals[fk][node] += v
}

// keptSource serves one family of a kept store.
type keptSource map[int]int64

func (s keptSource) Each(visit func(node int, v int64)) {
	nodes := make([]int, 0, len(s))
	for node := range s {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		visit(node, s[node])
	}
}

// both drives a Registry and the reference through the same calls.
// Values kept in src reach the Registry through its sources, and the
// reference holds them as plain counters, gauges and histograms.
type both struct {
	got *Registry
	ref *refRegistry
	src []*kept
}

func newBoth() both { return both{got: NewRegistry(), ref: newRefRegistry()} }

// newSourced is newBoth with some values kept outside the registry, in
// two stores that may both serve one family.
func newSourced() both {
	b := newBoth()
	b.src = []*kept{newKept(b.got), newKept(b.got)}
	return b
}

// check requires the two to agree on the snapshot, byte for byte on
// the dump, and on CounterValue, and the snapshot to list no zero.
func (b both) check(t *testing.T, what string) {
	t.Helper()
	gs, rs := b.got.Snapshot(), b.ref.Snapshot()
	for _, m := range gs {
		if m.Count == 0 && m.Value == 0 {
			t.Fatalf("%s: zero series listed: %+v", what, m)
		}
	}
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
	for k := range b.ref.counters {
		for _, node := range []int{k.Node, k.Node + 1} { // the key, and most likely no key
			want := int64(0)
			if c := b.ref.counters[refKey{node, k.Layer, k.Name}]; c != nil {
				want = c.v
			}
			if got := b.got.CounterValue(node, k.Layer, k.Name); got != want {
				t.Fatalf("%s: CounterValue(%d, %s, %s) = %d, want %d", what, node, k.Layer, k.Name, got, want)
			}
		}
	}
}

// fill applies n random operations: all three kinds, keys that collide
// across kinds (one name pool for all), names whose string order is not
// their numeric order.  The registry's own handles serve node-wide
// counters and histograms, and with sources half the operations are
// values kept in them: per-node counts on a dense node range and a
// sparse one, node-wide counts and gauges served through a Value, and
// node-wide histograms — under names of their own, where a family may
// be one source alone or two, node-wide only under "scalar", and under
// names that also hold the registry's own counter and histogram.
func (b both) fill(rng *rand.Rand, n int) {
	layers := []string{"simnet", "byz", "b"}
	names := []string{"link_n1_bytes", "link_n10_bytes", "link_n2_bytes", "x", "commits", "commit"}
	kept := []string{"link_n3_drops", "link_n30_drops", "link_n1_bytes", "x", "scalar"}
	for i := 0; i < n; i++ {
		layer, name := layers[rng.Intn(len(layers))], names[rng.Intn(len(names))]
		if b.src != nil && rng.Intn(2) == 0 {
			src, name := b.src[rng.Intn(len(b.src))], kept[rng.Intn(len(kept))]
			switch rng.Intn(4) {
			case 0:
				v := rng.Int63n(2000) - 1000
				b.ref.gauges[refKey{NodeWide, layer, name}] += float64(src.set(layer, name, v))
			case 1:
				v := rng.Int63n(1 << uint(rng.Intn(40)))
				src.observe(layer, name, v)
				b.ref.Histogram(NodeWide, layer, name).Observe(v)
			default:
				v, nd := rng.Int63n(1000), rng.Intn(100) // dense
				switch {
				case name == "scalar" || rng.Intn(4) == 0:
					nd = NodeWide
				case rng.Intn(4) == 0:
					nd = rng.Intn(1 << 40) // sparse
				}
				src.add(nd, layer, name, v)
				b.ref.Counter(nd, layer, name).Add(v)
			}
			continue
		}
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Int63n(1000) - 10
			b.got.Counter(layer, name).Add(v)
			b.ref.Counter(NodeWide, layer, name).Add(v)
		case 2:
			v := rng.Int63n(1 << uint(rng.Intn(40)))
			b.got.Histogram(layer, name).Observe(v)
			b.ref.Histogram(NodeWide, layer, name).Observe(v)
		}
	}
}

// TestRegistryMatchesReference is the byte-identity gate for the
// family-indexed registry: seeded random registries must snapshot, dump
// and answer CounterValue exactly as the map-keyed reference does —
// freshly built, after more series arrive and kept values change
// behind a dump that already ordered the rest, and merged in a shuffled
// order into a plain registry and into one with sources of its own.
// Per-node counts reach the registry only through sources
// (CounterSource) and Merge, and node-wide ones through the registry's
// Counter handles and through Value sources, alone, beside a handle,
// or several under one name.  Gauges reach it only through
// GaugeSource, alone or several under one name, and histograms through
// the registry's Histogram handles and HistogramSource, alone, beside
// a handle, or several under one name.  The reference holds them all
// as plain values.
func TestRegistryMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		parts := make([]both, 1+rng.Intn(4))
		for i := range parts {
			parts[i] = newBoth()
			if rng.Intn(2) == 0 {
				parts[i] = newSourced()
			}
			parts[i].fill(rng, rng.Intn(600))
			parts[i].check(t, fmt.Sprintf("seed %d part %d", seed, i))
			parts[i].fill(rng, rng.Intn(300))
			parts[i].check(t, fmt.Sprintf("seed %d part %d, refilled", seed, i))
		}
		for _, merged := range []both{newBoth(), newSourced()} {
			merged.fill(rng, rng.Intn(100))
			for _, i := range rng.Perm(len(parts)) {
				merged.got.Merge(parts[i].got)
				merged.ref.Merge(parts[i].ref)
			}
			merged.check(t, fmt.Sprintf("seed %d merged (sourced %v)", seed, merged.src != nil))
		}
	}

	empty := newBoth()
	empty.check(t, "empty")
	var nilReg *Registry
	var buf bytes.Buffer
	if err := nilReg.WriteBench(&buf, "x"); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry dumped %d bytes, err %v", buf.Len(), err)
	}
}

// TestRolledFamiliesMatchTheirEntities: a per-node family and a
// per-link family (entities keyed as simnet packs a link), each served
// by three sources that overlap on entities and hold zeros — three
// networks or tallies on one registry — dump as their exact total and
// the summary of their non-zero per-entity sums, both computed here
// from the values the sources were given.  No listed series is zero,
// and a family whose counts are all zero lists nothing.
func TestRolledFamiliesMatchTheirEntities(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRegistry()
	var want []Metric
	for _, f := range []struct {
		name   string
		entity func(i int) int
	}{
		{"link_bytes", func(i int) int { return (i/37+1)<<32 | i%37 }},
		{"tally", func(i int) int { return i }},
	} {
		sums := map[int]int64{}
		for s := 0; s < 3; s++ {
			vals := keptSource{}
			for j := 0; j < 500; j++ {
				e, v := f.entity(rng.Intn(2000)), rng.Int63n(3)*rng.Int63n(1000)
				vals[e] += v
				sums[e] += v
			}
			r.CounterSource("l", f.name, vals)
		}
		var total int64
		var nonZero []int64
		for _, v := range sums {
			total += v
			if v != 0 {
				nonZero = append(nonZero, v)
			}
		}
		if len(nonZero) == len(sums) {
			t.Fatalf("%s: no entity sums to zero; the test needs some", f.name)
		}
		sort.Slice(nonZero, func(i, j int) bool { return nonZero[i] < nonZero[j] })
		key := Key{"l", f.name}
		want = append(want, Metric{Key: key, Kind: "counter", Count: total}, Metric{
			Key: key, Kind: "summary", Count: int64(len(nonZero)),
			Hist: &HistSummary{
				Sum: total, Min: nonZero[0], Max: nonZero[len(nonZero)-1],
				P50: refQuantile(nonZero, 0.50), P99: refQuantile(nonZero, 0.99),
			},
		})
	}
	r.CounterSource("l", "zeros", keptSource{1: 0, 5: 0})
	r.CounterSource("l", "zeros", frozen{{NodeWide, 0}, {3, 0}})
	if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot %v, want %v", got, want)
	}
	var dump bytes.Buffer
	if err := r.WriteBench(&dump, "p"); err != nil {
		t.Fatal(err)
	}
	if series, _ := r.Order(); series != len(want) || bytes.Count(dump.Bytes(), []byte("\n")) != len(want) {
		t.Fatalf("Order counts %d series, the dump holds %d lines, want %d:\n%s", series, bytes.Count(dump.Bytes(), []byte("\n")), len(want), dump.String())
	}
}

// TestCounterValueCreatesNothing: reading must never add to the dump —
// not a series, and not an empty family either.
func TestCounterValueCreatesNothing(t *testing.T) {
	r := NewRegistry()
	r.Counter("byz", "commits").Add(7)
	r.CounterSource("byz", "commits", frozen{{3, 5}})
	r.GaugeSource("byz", "depth", Value(func() int64 { return 1 }))
	for _, probe := range []struct {
		node        int
		layer, name string
		want        int64
	}{
		{NodeWide, "byz", "commits", 7},
		{3, "byz", "commits", 5},
		{4, "byz", "commits", 0},        // family exists, node does not
		{NodeWide, "byz", "depth", 0},   // a gauge lives there, no counter
		{NodeWide, "byz", "nothing", 0}, // no such family
		{3, "nolayer", "commits", 0},
	} {
		if got := r.CounterValue(probe.node, probe.layer, probe.name); got != probe.want {
			t.Fatalf("CounterValue(%d, %s, %s) = %d, want %d", probe.node, probe.layer, probe.name, got, probe.want)
		}
	}
	if series, families := r.Order(); series != 3 || families != 2 {
		t.Fatalf("after reads: %d series in %d families, want 3 in 2", series, families)
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
	for i := 1; i <= 4000; i++ { // ~70 bytes a line: several chunks
		r.Counter("layer", fmt.Sprintf("a_name_long_enough_to_fill_chunks_%d", i)).Add(int64(i))
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
