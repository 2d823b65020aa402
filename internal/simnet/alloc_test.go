package simnet

import (
	"fmt"
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
	net.Node(b).Handle(func(m Message) { delivered++ })
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
	net.Node(b).Handle(func(m Message) { delivered++ })
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
// registered under the payload's (kind, key) fires, the node's Handle
// chain still sees everything, and non-Demuxed payloads skip the table.
func TestHandleDemux(t *testing.T) {
	k := sim.NewKernel(3)
	net := New(k, Config{})
	a := net.AddNode(0, 0).ID
	b := net.AddNode(0, 0).ID
	var k1, k2 DemuxKey
	k1[0], k2[0] = 1, 2
	hits1, hits2, all := 0, 0, 0
	net.Node(b).HandleDemux("probe", k1, func(m Message) { hits1++ })
	net.Node(b).HandleDemux("probe", k2, func(m Message) { hits2++ })
	net.Node(b).Handle(func(m Message) { all++ })
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
		t.Fatalf("Handle chain saw %d messages, want 5", all)
	}
}

// TestHandleDemuxSharedWord: the table is keyed by the key's first word
// alone, so keys that agree there — and kinds that share a key — land in
// one slot list and must still be told apart; several handlers for one
// (kind, key) run in registration order.
func TestHandleDemuxSharedWord(t *testing.T) {
	k := sim.NewKernel(3)
	net := New(k, Config{})
	a := net.AddNode(0, 0).ID
	b := net.AddNode(0, 0).ID
	var k1, k2 DemuxKey
	k1[0], k2[0] = 7, 7
	k2[19] = 1 // same first word, different key
	var order []string
	note := func(s string) Handler { return func(Message) { order = append(order, s) } }
	net.Node(b).HandleDemux("x", k1, note("x/k1/first"))
	net.Node(b).HandleDemux("y", k1, note("y/k1"))
	net.Node(b).HandleDemux("x", k2, note("x/k2"))
	net.Node(b).HandleDemux("x", k1, note("x/k1/second"))
	net.Send(a, b, "x", demuxProbe{key: k1}, 8)
	net.Send(a, b, "x", demuxProbe{key: k2}, 8)
	net.Send(a, b, "y", demuxProbe{key: k1}, 8)
	net.Send(a, b, "y", demuxProbe{key: k2}, 8) // registered by nobody
	k.Run()
	want := []string{"x/k1/first", "x/k1/second", "x/k2", "y/k1"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}

// TestLinkCountersAcrossTableGrowth: the link table doubles as links
// appear; every link's counters must stay reachable through it, a link
// must never get a second series, and re-attaching the same registry
// must pick the existing series up rather than shadow them.
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
	for from := 0; from < nodes; from++ {
		for to := 0; to < nodes; to++ {
			want := int64(2 * (100*from + to))
			if from == to {
				want = 0
			}
			if got := reg.CounterValue(from, "simnet", fmt.Sprintf("link_n%d_bytes", to)); got != want {
				t.Fatalf("link %d->%d carried %d bytes by its counter, want %d", from, to, got, want)
			}
		}
	}
	if got := net.KindBytes("bulk"); got != net.Stats().BytesSent || net.KindBytes("none") != 0 {
		t.Fatalf("KindBytes(bulk) = %d of %d sent; KindBytes(none) = %d", got, net.Stats().BytesSent, net.KindBytes("none"))
	}
}
