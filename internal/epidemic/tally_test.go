package epidemic

import (
	"reflect"
	"runtime"
	"testing"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/obs"
)

// TestTallyServesOneSeriesPerHost: a tally adds nothing to its registry
// until a replica reports into it, then serves each of its seven counts
// once per hosting node, summing the replicas one node hosts, and a
// dump rolls each count that is not zero everywhere into its total and
// its per-node summary.
func TestTallyServesOneSeriesPerHost(t *testing.T) {
	k := testKey(5)
	v0 := object.NewObject([]byte(""), 8, k)
	reg := obs.NewRegistry()
	tally := NewTally(reg)
	if series, families := reg.Order(); series != 0 || families != 0 {
		t.Fatalf("an unused tally registered %d series in %d families", series, families)
	}
	a, b, c := New(v0), New(v0), New(v0)
	a.Instrument(tally.At(7))
	b.Instrument(tally.At(2))
	c.Instrument(tally.At(7))
	if tally.At(7) != tally.At(7) || tally.At(7) == tally.At(2) {
		t.Fatal("a node's slot is not one slot")
	}
	client := guid.FromData([]byte("c"))
	for _, r := range []*Replica{a, c} {
		r.Commit(appendUpdate(t, v0, k, "x", client, 1, 0), 0, 1)
	}
	b.AddTentative(appendUpdate(t, v0, k, "y", client, 2, 0))

	for name, want := range map[string][2]int64{"commits": {0, 2}, "tentative": {1, 0}, "aborts": {0, 0}} {
		for i, node := range []int{2, 7} {
			if got := reg.CounterValue(node, "epidemic", name); got != want[i] {
				t.Fatalf("%s at node %d = %d, want %d", name, node, got, want[i])
			}
		}
	}
	var got []obs.Metric
	for _, m := range reg.Snapshot() {
		if m.Key.Layer != "epidemic" {
			t.Fatalf("tally dumped %+v", m)
		}
		got = append(got, m)
	}
	want := []obs.Metric{
		{Key: obs.Key{Layer: "epidemic", Name: "commits"}, Kind: "counter", Count: 2},
		{Key: obs.Key{Layer: "epidemic", Name: "commits"}, Kind: "summary", Count: 1, Hist: &obs.HistSummary{Sum: 2, Min: 2, Max: 2, P50: 2, P99: 2}},
		{Key: obs.Key{Layer: "epidemic", Name: "tentative"}, Kind: "counter", Count: 1},
		{Key: obs.Key{Layer: "epidemic", Name: "tentative"}, Kind: "summary", Count: 1, Hist: &obs.HistSummary{Sum: 1, Min: 1, Max: 1, P50: 1, P99: 1}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tally dumped %v, want %v", got, want)
	}
	if _, families := reg.Order(); families != len(countNames) {
		t.Fatalf("tally registered %d counts, want %d", families, len(countNames))
	}
}

// TestHeapPerHost bounds what a hosting node costs to count with a
// registry attached: the live heap per hosting node between none and
// scale-100k's 20 456 of 100 000 nodes, each instrumenting one
// replica, read once, as a dump reads it.  The bound is the 109 B
// measured when the counts moved into a tally (a 64 B Counts and the
// node-indexed slice's share), plus 25 %; seven heap Counters in seven
// per-node families cost 385 B a hosting node.
func TestHeapPerHost(t *testing.T) {
	const nodes, hosts, bound = 100_000, 20_456, 109 * 1.25
	live := func(hosts int) int64 {
		reg := obs.NewRegistry()
		tally := NewTally(reg)
		x := uint64(1)
		hosting := make([]bool, nodes)
		for n := 0; n < hosts; {
			x ^= x << 13 // xorshift: any fixed scatter will do
			x ^= x >> 7
			x ^= x << 17
			if node := int(x % nodes); !hosting[node] {
				hosting[node] = true
				var r Replica
				r.Instrument(tally.At(node))
				n++
			}
		}
		reg.Order()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(reg)
		runtime.KeepAlive(hosting)
		return int64(ms.HeapAlloc)
	}
	h0, h1 := live(0), live(hosts)
	perHost := float64(h1-h0) / hosts
	t.Logf("live heap %.2f -> %.2f MB over %d hosting nodes: %.0f B/host", float64(h0)/(1<<20), float64(h1)/(1<<20), hosts, perHost)
	if perHost > bound {
		t.Fatalf("%.0f B of live heap per hosting node, bound %.0f", perHost, bound)
	}
}
