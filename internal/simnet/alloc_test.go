package simnet

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
)

// TestSendDeliverZeroAlloc pins the lone-message path — one message on
// its tick, which is what distance-derived latencies make of almost
// every soak message: after the batch pool and stats tables warm up, a
// send and its delivery must not allocate.  One word here costs
// gigabytes at soak scale.
func TestSendDeliverZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	net := New(k, Config{BaseLatency: time.Millisecond})
	a := net.AddNode(0, 0).ID
	b := net.AddNode(0, 0).ID
	delivered := 0
	net.HandleAll(func(NodeID, Message) { delivered++ })
	for i := 0; i < 8; i++ {
		net.Send(a, b, "alloc-probe", nil, 16)
	}
	k.Run()
	allocs := testing.AllocsPerRun(100, func() {
		net.Send(a, b, "alloc-probe", nil, 16)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("send+deliver allocated %.1f per message, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("probe messages were never delivered")
	}
}

// TestBatchTickZeroAlloc pins the coalescing path: a steady-state tick —
// several messages coalescing onto one due time, one flush event —
// must recycle the batch buffer and its flush closure.
func TestBatchTickZeroAlloc(t *testing.T) {
	k := sim.NewKernel(2)
	net := New(k, Config{BaseLatency: time.Millisecond})
	a := net.AddNode(0, 0).ID
	b := net.AddNode(0, 0).ID
	delivered := 0
	net.HandleAll(func(NodeID, Message) { delivered++ })
	tick := func() {
		for i := 0; i < 4; i++ {
			net.Send(a, b, "alloc-probe", nil, 16)
		}
		k.Run()
	}
	for i := 0; i < 8; i++ {
		tick() // warm the batch pool and the batches map
	}
	allocs := testing.AllocsPerRun(100, func() { tick() })
	if allocs != 0 {
		t.Fatalf("batched tick allocated %.1f per 4-message tick, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("probe messages were never delivered")
	}
}

// demuxProbe is a payload that names its protocol instance for O(1)
// demux dispatch.
type demuxProbe struct{ key DemuxKey }

func (p demuxProbe) Demux() DemuxKey { return p.key }

// TestHandleDemux pins the demux table semantics: only the handler
// registered under the payload's key, for its kind, fires; a
// network-wide handler still sees everything, and non-Demuxed payloads
// skip the table.
func TestHandleDemux(t *testing.T) {
	k := sim.NewKernel(3)
	net := New(k, Config{})
	a := net.AddNode(0, 0).ID
	b := net.AddNode(0, 0).ID
	var k1, k2 DemuxKey
	k1[0], k2[0] = 1, 2
	hits1, hits2, all := 0, 0, 0
	net.Node(b).HandleDemux(k1, []string{"probe"}, func(m Message) { hits1++ })
	net.Node(b).HandleDemux(k2, []string{"probe"}, func(m Message) { hits2++ })
	net.HandleAll(func(NodeID, Message) { all++ })
	net.Send(a, b, "probe", demuxProbe{key: k1}, 8)
	net.Send(a, b, "probe", demuxProbe{key: k1}, 8)
	net.Send(a, b, "probe", demuxProbe{key: k2}, 8)
	net.Send(a, b, "other", demuxProbe{key: k1}, 8) // kind mismatch
	net.Send(a, b, "probe", nil, 8)                 // not Demuxed
	k.Run()
	if hits1 != 2 || hits2 != 1 {
		t.Fatalf("demux hits %d/%d, want 2/1", hits1, hits2)
	}
	if all != 5 {
		t.Fatalf("network-wide handler saw %d messages, want 5", all)
	}
}

// TestHandleDemuxSharedWord: the table is ordered by the key's first
// word alone, so keys that agree there — and registrations that share a
// key — sit side by side and must still be told apart by key and kind;
// every registration a delivery matches runs, in registration order,
// however the words of other instances were interleaved among them.
func TestHandleDemuxSharedWord(t *testing.T) {
	k := sim.NewKernel(3)
	net := New(k, Config{})
	a := net.AddNode(0, 0).ID
	b := net.AddNode(0, 0).ID
	var k0, k1, k2, k9 DemuxKey
	k0[0], k1[0], k2[0], k9[0] = 3, 7, 7, 9
	k2[19] = 1 // same first word as k1, different key
	var order []string
	note := func(s string) Handler { return func(Message) { order = append(order, s) } }
	x, y, xy := []string{"x"}, []string{"y"}, []string{"x", "y"}
	net.Node(b).HandleDemux(k9, x, note("x/k9"))
	net.Node(b).HandleDemux(k1, x, note("x/k1/first"))
	net.Node(b).HandleDemux(k1, y, note("y/k1"))
	net.Node(b).HandleDemux(k0, x, note("x/k0"))
	net.Node(b).HandleDemux(k2, x, note("x/k2"))
	net.Node(b).HandleDemux(k1, xy, note("xy/k1"))
	net.Node(b).HandleDemux(k1, x, note("x/k1/second"))
	send := func(kind string, key DemuxKey) {
		net.Send(a, b, kind, demuxProbe{key: key}, 8)
		k.Run()
	}
	send("x", k1)
	send("x", k2)
	send("y", k1)
	send("y", k2) // registered by nobody
	send("x", k0)
	send("x", k9)
	want := []string{
		"x/k1/first", "xy/k1", "x/k1/second",
		"x/k2",
		"y/k1", "xy/k1",
		"x/k0", "x/k9",
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}

// TestHandleDemuxDuringDelivery: a handler that registers another
// instance on the node it runs on — a client submitting to a new tier
// from inside a reply — must neither rerun a handler of the delivery in
// progress nor see the new one fire for it.
func TestHandleDemuxDuringDelivery(t *testing.T) {
	k := sim.NewKernel(3)
	net := New(k, Config{})
	a := net.AddNode(0, 0).ID
	b := net.AddNode(0, 0).ID
	var k1, k2, k9 DemuxKey
	k1[0], k2[0], k9[0] = 5, 4, 9 // k2 sorts before k1: the insert shifts k1's slots
	kinds := []string{"x"}
	var order []string
	// Three slots leave the table spare capacity, so an insert in place
	// would move the slots under the walk.
	net.Node(b).HandleDemux(k9, kinds, func(Message) { order = append(order, "k9") })
	net.Node(b).HandleDemux(k1, kinds, func(Message) {
		order = append(order, "k1/first")
		net.Node(b).HandleDemux(k2, kinds, func(Message) { order = append(order, "k2") })
		net.Node(b).HandleDemux(k1, kinds, func(Message) { order = append(order, "k1/late") })
	})
	net.Node(b).HandleDemux(k1, kinds, func(Message) { order = append(order, "k1/second") })
	net.Send(a, b, "x", demuxProbe{key: k1}, 8)
	k.Run()
	if want := "[k1/first k1/second]"; fmt.Sprint(order) != want {
		t.Fatalf("delivery ran %v, want %v", order, want)
	}
	order = nil
	net.Send(a, b, "x", demuxProbe{key: k2}, 8)
	k.Run()
	if want := "[k2]"; fmt.Sprint(order) != want {
		t.Fatalf("the instance registered mid-delivery ran %v, want %v", order, want)
	}
}

// TestUnhandleDuringDelivery: a handler that removes its own
// registration — a client's reply route going with its last
// outstanding request — must not make the delivery in progress skip the
// slot after it, which an in-place delete would shift under the walk,
// nor run any slot twice.  Later deliveries miss the removed slot, a
// removal outside a delivery works in place, an equal but distinct
// kinds slice removes nothing, and a node left with no registration
// still takes deliveries (no slot runs), as a node whose slots are for
// other instances does: only a node that never registered drops them
// as unhandled.
func TestUnhandleDuringDelivery(t *testing.T) {
	k := sim.NewKernel(3)
	net := New(k, Config{})
	a := net.AddNode(0, 0).ID
	b := net.AddNode(0, 0).ID
	var k1, k9 DemuxKey
	k1[0], k9[0] = 5, 9
	first, second, third := []string{"x"}, []string{"x"}, []string{"x"}
	var order []string
	net.Node(b).HandleDemux(k9, first, func(Message) { order = append(order, "k9") })
	net.Node(b).HandleDemux(k1, first, func(Message) {
		order = append(order, "k1/first")
		net.Node(b).Unhandle(k1, first)
	})
	net.Node(b).HandleDemux(k1, second, func(Message) { order = append(order, "k1/second") })
	net.Node(b).HandleDemux(k1, third, func(Message) { order = append(order, "k1/third") })
	deliver := func(key DemuxKey) string {
		order = nil
		net.Send(a, b, "x", demuxProbe{key: key}, 8)
		k.Run()
		return fmt.Sprint(order)
	}
	if got, want := deliver(k1), "[k1/first k1/second k1/third]"; got != want {
		t.Fatalf("the delivery that removed a slot ran %v, want %v", got, want)
	}
	if got, want := deliver(k1), "[k1/second k1/third]"; got != want || net.Node(b).Handlers(k1) != 2 {
		t.Fatalf("after the removal a delivery ran %v, want %v (%d slots for the key)", got, want, net.Node(b).Handlers(k1))
	}
	net.Node(b).Unhandle(k1, []string{"x"}) // equal to second's kinds, but not second's slice
	net.Node(b).Unhandle(k1, second)
	if got, want := deliver(k1), "[k1/third]"; got != want {
		t.Fatalf("after removing the second slot a delivery ran %v, want %v", got, want)
	}
	net.Node(b).Unhandle(k1, third)
	net.Node(b).Unhandle(k9, first)
	before := net.Stats().MessagesDelivered
	if got := deliver(k1); got != "[]" || net.Node(b).Handlers(k1)+net.Node(b).Handlers(k9) != 0 ||
		net.Stats().DroppedNoHandler != 0 || net.Stats().MessagesDelivered != before+1 {
		t.Fatalf("a node whose registrations all went ran %v, delivered %d, dropped %d as unhandled",
			got, net.Stats().MessagesDelivered-before, net.Stats().DroppedNoHandler)
	}
}

// TestLinkCountersAcrossTableGrowth: the link table doubles as links
// appear; every link's count must stay reachable through it, and
// re-attaching the same registry must add the new table's counts to the
// old one's per link, not list a link twice.
func TestLinkCountersAcrossTableGrowth(t *testing.T) {
	const nodes = 40 // 1560 directed links: two doublings past the first 1024 slots
	k := sim.NewKernel(5)
	net := New(k, Config{})
	net.AddRandomNodes(nodes, 10, 1)
	reg := obs.NewRegistry()
	net.Instrument(reg, nil)
	round := func() {
		for from := 0; from < nodes; from++ {
			for to := 0; to < nodes; to++ {
				if from != to {
					net.Send(NodeID(from), NodeID(to), "bulk", nil, 100*from+to)
				}
			}
		}
		k.Run()
	}
	round()
	series, _ := reg.Order()
	net.Instrument(reg, nil)
	round()
	if again, _ := reg.Order(); again != series {
		t.Fatalf("re-instrumented run grew the registry from %d to %d series", series, again)
	}
	var total int64
	for from := 0; from < nodes; from++ {
		for to := 0; to < nodes; to++ {
			want := int64(100*from + to)
			if from == to {
				want = 0
			}
			total += 2 * want
			if got := net.LinkBytes(NodeID(from), NodeID(to)); got != want {
				t.Fatalf("link %d->%d carried %d bytes by the table, want %d", from, to, got, want)
			}
			if got := reg.CounterValue(LinkEntity(NodeID(from), NodeID(to)), "simnet", "link_bytes"); got != 2*want {
				t.Fatalf("link %d->%d carried %d bytes by the registry, want %d", from, to, got, 2*want)
			}
		}
	}
	// 39 links from each source, in ascending order of source: the
	// p50 (rank 780 of 1 560) is source 19's last link, the p99 (rank
	// 1 544) source 39's 23rd.
	want := []obs.Metric{
		{Key: obs.Key{Layer: "simnet", Name: "link_bytes"}, Kind: "counter", Count: total},
		{Key: obs.Key{Layer: "simnet", Name: "link_bytes"}, Kind: "summary", Count: nodes * (nodes - 1),
			Hist: &obs.HistSummary{Sum: total, Min: 2 * 1, Max: 2 * (100*(nodes-1) + nodes - 2), P50: 2 * 1939, P99: 2 * 3922}},
	}
	var got []obs.Metric
	for _, m := range reg.Snapshot() {
		if m.Key.Name == "link_bytes" {
			got = append(got, m)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("link_bytes dumped as %v, want %v", got, want)
	}
	if got := net.KindBytes("bulk"); got != net.Stats().BytesSent || net.KindBytes("none") != 0 {
		t.Fatalf("KindBytes(bulk) = %d of %d sent; KindBytes(none) = %d", got, net.Stats().BytesSent, net.KindBytes("none"))
	}
}

// TestSendDeliverZeroAllocInstrumented is TestSendDeliverZeroAlloc with
// a registry attached: a send on a link that already exists is one
// probe of the link table and an add, and the aggregate counters are
// field increments.
func TestSendDeliverZeroAllocInstrumented(t *testing.T) {
	k := sim.NewKernel(1)
	net := New(k, Config{BaseLatency: time.Millisecond})
	a := net.AddNode(0, 0).ID
	b := net.AddNode(0, 0).ID
	delivered := 0
	net.HandleAll(func(NodeID, Message) { delivered++ })
	reg := obs.NewRegistry()
	net.Instrument(reg, nil)
	for i := 0; i < 8; i++ {
		net.Send(a, b, "alloc-probe", nil, 16)
	}
	k.Run()
	allocs := testing.AllocsPerRun(100, func() {
		net.Send(a, b, "alloc-probe", nil, 16)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("instrumented send+deliver allocated %.1f per message, want 0", allocs)
	}
	if got := net.LinkBytes(a, b); got != 16*int64(delivered) {
		t.Fatalf("link %d->%d counted %d bytes for %d deliveries of 16", a, b, got, delivered)
	}
}

// TestLinkCountersStayWithTheirRegistry: re-pointing the network at
// another registry leaves the first one its own counts — read after
// the switch, not before — and Instrument(nil) detaches, so later
// traffic reaches neither.  That holds for the node-wide series too,
// retries by kind among them, and ResetStats zeroes the network's
// Stats but not what an attached registry has counted.
func TestLinkCountersStayWithTheirRegistry(t *testing.T) {
	k := sim.NewKernel(6)
	net := New(k, Config{})
	net.AddRandomNodes(3, 10, 1)
	net.HandleAll(func(NodeID, Message) {})
	first, second := obs.NewRegistry(), obs.NewRegistry()
	net.Instrument(first, nil)
	net.NoteRetry("a")
	net.Send(0, 1, "x", nil, 10)
	k.Run()
	net.Instrument(second, nil)
	net.NoteRetry("b")
	net.ResetStats()
	net.NoteRetry("b")
	net.Send(0, 1, "x", nil, 20)
	net.Send(2, 1, "x", nil, 30)
	k.Run()
	net.Crash(1)
	net.Send(0, 1, "x", nil, 5) // dropped at delivery
	k.Run()
	net.Recover(1)
	net.Instrument(nil, nil)
	net.NoteRetry("a")
	net.Send(0, 1, "x", nil, 40)
	net.Send(0, 2, "x", nil, 50)
	k.Run()
	for _, c := range []struct {
		reg        *obs.Registry
		from       int
		name       string
		want       int64
		wantSeries int
	}{
		{first, LinkEntity(0, 1), "link_bytes", 10, 2},
		{first, LinkEntity(2, 1), "link_bytes", 0, 2},
		{first, LinkEntity(0, 1), "link_drops", 0, 2},
		{second, LinkEntity(0, 1), "link_bytes", 25, 4},
		{second, LinkEntity(2, 1), "link_bytes", 30, 4},
		{second, LinkEntity(0, 1), "link_drops", 1, 4},
		{second, LinkEntity(0, 2), "link_bytes", 0, 4},
		{first, obs.NodeWide, "msgs_sent", 1, 2},
		{first, obs.NodeWide, "drop_crash", 0, 2},
		{first, obs.NodeWide, "retries", 1, 2},
		{first, obs.NodeWide, "retries_a", 1, 2},
		{first, obs.NodeWide, "retries_b", 0, 2},
		{second, obs.NodeWide, "msgs_sent", 3, 4},
		{second, obs.NodeWide, "drop_crash", 1, 4},
		{second, obs.NodeWide, "retries", 2, 4},
		{second, obs.NodeWide, "retries_a", 0, 4},
		{second, obs.NodeWide, "retries_b", 2, 4},
	} {
		if got := c.reg.CounterValue(c.from, "simnet", c.name); got != c.want {
			t.Fatalf("registry %p: %s of entity %d = %d, want %d", c.reg, c.name, c.from, got, c.want)
		}
		links := 0
		for _, m := range c.reg.Snapshot() {
			if strings.HasPrefix(m.Key.Name, "link_") {
				links++
			}
		}
		if links != c.wantSeries {
			t.Fatalf("registry %p dumps %d link series, want %d", c.reg, links, c.wantSeries)
		}
	}
	if a, b := first.CounterValue(obs.NodeWide, "simnet", "bytes_sent"), second.CounterValue(obs.NodeWide, "simnet", "bytes_sent"); a != 10 || b != 55 {
		t.Fatalf("bytes_sent = %d and %d, want 10 and 55", a, b)
	}
}

// TestHeapPerLink bounds what a link costs to count with a registry
// attached: the live heap per link between two link counts, in a
// 100 000-node network with scale-100k's fan-in skew — two thirds of
// the links into the busiest 1 024 of 15 760 destinations — read once,
// as a dump reads it, which keeps nothing.  The bound is the 43 B
// measured since a read stopped adding a sorted key array and two
// families per destination (59 B), plus 25 %; a Counter and two series
// per link cost 168 B.
func TestHeapPerLink(t *testing.T) {
	const nodes, dests, small, large, bound = 100_000, 15_760, 60_000, 240_000, 43 * 1.25
	live := func(sends int) (heap int64, links int) {
		k := sim.NewKernel(1)
		net := New(k, Config{})
		for i := 0; i < nodes; i++ {
			net.AddNode(0, 0)
		}
		net.HandleAll(func(NodeID, Message) {})
		reg := obs.NewRegistry()
		net.Instrument(reg, nil)
		x := uint64(1)
		next := func(n int) NodeID { // xorshift: any fixed scatter will do
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return NodeID(x % uint64(n))
		}
		to := make([]NodeID, dests)
		for d := range to {
			to[d] = next(nodes)
		}
		for i := 0; i < sends; i++ {
			d := next(dests)
			if i%3 != 0 {
				d = next(1024)
			}
			net.Send(next(nodes), to[d], "probe", nil, 64)
			if i%1024 == 0 {
				k.Run()
			}
		}
		k.Run()
		reg.Order()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(reg)
		return int64(ms.HeapAlloc), net.om.links.used
	}
	h1, l1 := live(small)
	h2, l2 := live(large)
	perLink := float64(h2-h1) / float64(l2-l1)
	t.Logf("live heap %.1f -> %.1f MB over %d -> %d links: %.0f B/link", float64(h1)/(1<<20), float64(h2)/(1<<20), l1, l2, perLink)
	if perLink > bound {
		t.Fatalf("%.0f B of live heap per link, bound %.0f", perLink, bound)
	}
}

// TestUnhandleShrinksTheTable: a node's demux table gives back its
// array once removals leave it at a quarter of its capacity, and the
// slots that remain still take their deliveries.
func TestUnhandleShrinksTheTable(t *testing.T) {
	k := sim.NewKernel(4)
	net := New(k, Config{})
	a := net.AddNode(0, 0).ID
	b := net.Node(net.AddNode(0, 0).ID)
	const n = 64
	kinds := make([][]string, n)
	ran := 0
	for i := range kinds {
		var key DemuxKey
		key[0] = byte(i)
		kinds[i] = []string{"x"}
		b.HandleDemux(key, kinds[i], func(Message) { ran++ })
	}
	full := b.DemuxCap()
	for i := 0; i < n-4; i++ {
		var key DemuxKey
		key[0] = byte(i)
		b.Unhandle(key, kinds[i])
		if left := n - 1 - i; b.DemuxCap() > 4*left+4 && left > 1 {
			t.Fatalf("%d slots left in a table of capacity %d", left, b.DemuxCap())
		}
	}
	if b.DemuxCap() >= full/4 {
		t.Fatalf("4 slots keep a table of capacity %d (it held %d)", b.DemuxCap(), full)
	}
	for i := n - 4; i < n; i++ {
		var key DemuxKey
		key[0] = byte(i)
		net.Send(a, b.ID, "x", demuxProbe{key: key}, 8)
	}
	k.Run()
	if ran != 4 {
		t.Fatalf("%d of the 4 remaining slots ran", ran)
	}
}
