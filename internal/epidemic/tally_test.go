package epidemic

import (
	"runtime"
	"testing"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/obs"
)

// TestTallyServesOneSeriesPerHost: a tally adds nothing to its registry
// until a replica reports into it, then dumps each of its seven counts
// once per hosting node, in node order, summing the replicas one node
// hosts.
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

	want := map[string][2]int64{"commits": {0, 2}, "tentative": {1, 0}}
	seen := map[string]int{}
	var last obs.Key
	for _, m := range reg.Snapshot() {
		if m.Key.Layer != "epidemic" || m.Kind != "counter" {
			t.Fatalf("tally dumped %+v", m)
		}
		if m.Key.Name == last.Name && m.Key.Node <= last.Node {
			t.Fatalf("%s: node %d after node %d", m.Key.Name, m.Key.Node, last.Node)
		}
		last = m.Key
		i := seen[m.Key.Name]
		seen[m.Key.Name]++
		if node := [2]int{2, 7}[i]; m.Key.Node != node {
			t.Fatalf("%s series %d is node %d, want %d", m.Key.Name, i, m.Key.Node, node)
		}
		if m.Count != want[m.Key.Name][i] {
			t.Fatalf("%s at node %d = %d, want %d", m.Key.Name, m.Key.Node, m.Count, want[m.Key.Name][i])
		}
	}
	if len(seen) != len(countNames) {
		t.Fatalf("tally dumped %d counts, want %d", len(seen), len(countNames))
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
