package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(7)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram state")
	}
	h.Merge(&Histogram{})

	var r *Registry
	if r.Counter(1, "l", "n") != nil || r.Gauge(1, "l", "n") != nil || r.Histogram(1, "l", "n") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot")
	}
	r.Merge(NewRegistry())

	var tr *Tracer
	tr.Emit(Event{Layer: "x"})
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer state")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(NodeWide, "simnet", "sent")
	c.Inc()
	c.Add(4)
	if got := r.Counter(NodeWide, "simnet", "sent").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5 (handles for one key must be shared)", got)
	}
	g := r.Gauge(2, "replica", "depth")
	g.Set(1.5)
	g.Add(0.5)
	if g.Value() != 2.0 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 110 || h.Mean() != 22 {
		t.Fatalf("count/sum/mean = %d/%d/%d", h.Count(), h.Sum(), h.Mean())
	}
	// p50 lands in the bucket holding 3 (values 2..3); the reported
	// upper bound is 3.
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %d, want 3", q)
	}
	// The top quantile must clamp to the exact max, not a power of two.
	if q := h.Quantile(0.99); q != 100 {
		t.Fatalf("p99 = %d, want 100", q)
	}
	// Negative observations clamp to zero rather than corrupting state.
	h.Observe(-5)
	if h.Quantile(0.0) != 0 || h.Sum() != 110 {
		t.Fatalf("negative clamp: min=%d sum=%d", h.Quantile(0.0), h.Sum())
	}
}

// TestHistogramMinMax: the exact extrema accessors, including the
// nil-receiver and empty cases the nil-safe handle pattern relies on.
func TestHistogramMinMax(t *testing.T) {
	var nilH *Histogram
	if nilH.Min() != 0 || nilH.Max() != 0 {
		t.Fatalf("nil histogram extrema: min=%d max=%d", nilH.Min(), nilH.Max())
	}
	var h Histogram
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram extrema: min=%d max=%d", h.Min(), h.Max())
	}
	for _, v := range []int64{42, 7, 1000, 7, 99} {
		h.Observe(v)
	}
	if h.Min() != 7 || h.Max() != 1000 {
		t.Fatalf("extrema = %d/%d, want 7/1000", h.Min(), h.Max())
	}
}

func TestHistogramMergeEqualsCombinedObservations(t *testing.T) {
	var a, b, all Histogram
	for i := int64(0); i < 50; i++ {
		v := i * i % 97
		a.Observe(v)
		all.Observe(v)
	}
	for i := int64(0); i < 50; i++ {
		v := i*31 + 5
		b.Observe(v)
		all.Observe(v)
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Sum() != all.Sum() {
		t.Fatalf("merge count/sum mismatch: %d/%d vs %d/%d", a.Count(), a.Sum(), all.Count(), all.Sum())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("quantile %v: merged %d vs combined %d", q, a.Quantile(q), all.Quantile(q))
		}
	}
	// Merging an empty histogram must not disturb min.
	pre := a.Quantile(0)
	a.Merge(&Histogram{})
	if a.Quantile(0) != pre {
		t.Fatal("empty merge changed min")
	}
}

func TestRegistryMergeAndSnapshotOrder(t *testing.T) {
	// Build the same logical content in two registries with different
	// creation orders and different merge groupings; dumps must be
	// byte-identical.
	build := func(order []int) *Registry {
		parts := make([]*Registry, 3)
		for i := range parts {
			parts[i] = NewRegistry()
		}
		parts[0].Counter(1, "simnet", "sent").Add(3)
		parts[1].Counter(1, "simnet", "sent").Add(4)
		parts[2].Counter(NodeWide, "byz", "commits").Add(2)
		parts[0].Histogram(NodeWide, "plaxton", "route_hops").Observe(4)
		parts[1].Histogram(NodeWide, "plaxton", "route_hops").Observe(6)
		parts[2].Gauge(0, "replica", "load").Add(1.25)
		m := NewRegistry()
		for _, i := range order {
			m.Merge(parts[i])
		}
		return m
	}
	var x, y bytes.Buffer
	if err := build([]int{0, 1, 2}).WriteBench(&x, "obs/t/s1"); err != nil {
		t.Fatal(err)
	}
	if err := build([]int{2, 1, 0}).WriteBench(&y, "obs/t/s1"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Fatalf("merge-order-dependent dump:\n%s\nvs\n%s", x.String(), y.String())
	}
	if !strings.Contains(x.String(), "Benchmarkobs/t/s1/simnet/sent/n1 1 7 count\n") {
		t.Fatalf("missing merged counter line in:\n%s", x.String())
	}
	if strings.Contains(x.String(), "-") {
		t.Fatalf("dump contains '-', which benchmark-format tooling may strip:\n%s", x.String())
	}
}

func TestWriteBenchHistogramLine(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(3, "archive", "retrieval_latency_ns")
	h.ObserveDuration(100 * time.Millisecond)
	h.ObserveDuration(300 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteBench(&buf, "obs/e/s9"); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.HasPrefix(line, "Benchmarkobs/e/s9/archive/retrieval_latency_ns/n3 1 2 count 400000000 sum 200000000 mean ") {
		t.Fatalf("unexpected histogram line: %q", line)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{T: int64(i), Node: i, Layer: "simnet", Event: "send"})
	}
	if tr.Len() != 4 || tr.Dropped() != 2 {
		t.Fatalf("len/dropped = %d/%d, want 4/2", tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		if e.T != int64(i+2) {
			t.Fatalf("event %d has T=%d, want %d (oldest two dropped, order kept)", i, e.T, i+2)
		}
	}
}

func TestTracerAppendAndJSONL(t *testing.T) {
	a := NewTracer(8)
	a.Emit(Event{T: 1, Node: 0, Peer: 2, Layer: "simnet", Event: "send", ID: 7, Kind: "req", Bytes: 64})
	b := NewTracer(2)
	b.Emit(Event{T: 2, Node: 1, Peer: -1, Layer: "plaxton", Event: "route-done", Path: []int{1, 4, 2}})
	b.Emit(Event{T: 3, Node: 0, Layer: "byz", Event: "commit"})
	b.Emit(Event{T: 4, Node: 0, Layer: "byz", Event: "commit"}) // wraps: drops T=2
	a.Append(b)
	if a.Len() != 3 || a.Dropped() != 1 {
		t.Fatalf("append len/dropped = %d/%d, want 3/1", a.Len(), a.Dropped())
	}
	var buf bytes.Buffer
	if err := a.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"t":1,"node":0,"peer":2,"layer":"simnet","event":"send","id":7,"kind":"req","bytes":64}
{"t":3,"node":0,"peer":0,"layer":"byz","event":"commit"}
{"t":4,"node":0,"peer":0,"layer":"byz","event":"commit"}
`
	if buf.String() != want {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter(NodeWide, "simnet", "sent")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram(NodeWide, "plaxton", "route_hops")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 1023))
	}
}

func BenchmarkTracerEmit(b *testing.B) {
	tr := NewTracer(1 << 12)
	ev := Event{T: 1, Node: 2, Peer: 3, Layer: "simnet", Event: "send", ID: 9, Kind: "req", Bytes: 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(ev)
	}
}
