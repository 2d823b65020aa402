package simnet

import (
	"testing"
	"time"

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
