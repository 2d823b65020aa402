package simnet

import (
	"testing"
	"time"

	"oceanstore/internal/sim"
)

// The struct-of-arrays refactor turned Node into a value handle whose
// accessors index the Network's parallel slices; these tests pin the
// handle surface.

func TestNodeAccessorsAndSetters(t *testing.T) {
	k := sim.NewKernel(3)
	net := New(k, Config{})
	a := net.AddNode(3, 4)
	if net.xs[a.ID] != 3 || net.ys[a.ID] != 4 {
		t.Fatalf("position = (%v,%v)", net.xs[a.ID], net.ys[a.ID])
	}
	if a.LowBandwidth() {
		t.Fatal("fresh node marked low-bandwidth")
	}
	a.SetLowBandwidth(true)
	if !a.LowBandwidth() || !net.Node(a.ID).LowBandwidth() {
		t.Fatal("SetLowBandwidth not visible through a second handle")
	}
	net.Crash(a.ID)
	if !a.Down() {
		t.Fatal("Crash not visible through the handle")
	}
	net.Recover(a.ID)
	if net.Distance(a.ID, net.AddNode(0, 0).ID) != 5 {
		t.Fatal("distance through SoA coordinates wrong")
	}
}

// TestGlobalHandlerOrderAndAccounting pins delivery's two stages: the
// HandleAll handlers fire first, then the destination's HandleDemux
// handlers — whatever order they were registered in — and a global
// handler alone counts as "has handlers" for the no-handler drop
// accounting.
func TestGlobalHandlerOrderAndAccounting(t *testing.T) {
	k := sim.NewKernel(6)
	net := New(k, Config{})
	src := net.AddNode(0, 0)
	dst := net.AddNode(1, 0)
	bare := net.AddNode(2, 0) // no keyed handler
	var order []string
	var key DemuxKey
	key[0] = 1
	dst.HandleDemux(key, []string{"a"}, func(m Message) { order = append(order, "keyed") })
	net.HandleAll(func(to NodeID, m Message) {
		order = append(order, "global->"+string(rune('0'+int(to))))
	})
	net.Send(src.ID, dst.ID, "a", demuxProbe{key: key}, 8)
	net.Send(src.ID, bare.ID, "b", nil, 8)
	k.Run()
	want := []string{"global->1", "keyed", "global->2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if d := net.Stats().DroppedNoHandler; d != 0 {
		t.Fatalf("global handler did not count as a handler: %d no-handler drops", d)
	}
}

func TestBounceAndKindBytes(t *testing.T) {
	k := sim.NewKernel(8)
	net := New(k, Config{BaseLatency: time.Millisecond})
	a := net.AddNode(0, 0)
	b := net.AddNode(1, 0)
	net.HandleAll(func(NodeID, Message) {})
	net.Bounce(b.ID, 10*time.Millisecond, 20*time.Millisecond)
	k.At(15*time.Millisecond, func() { net.Send(a.ID, b.ID, "ping", nil, 100) }) // lost: b is down
	k.At(40*time.Millisecond, func() { net.Send(a.ID, b.ID, "ping", nil, 100) }) // b recovered
	net.NoteRetry("ping")
	k.Run()
	st := net.Stats()
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("bounce: crashes=%d recoveries=%d", st.Crashes, st.Recoveries)
	}
	if st.MessagesDelivered != 1 || st.DroppedByCrash != 1 {
		t.Fatalf("delivered=%d droppedByCrash=%d", st.MessagesDelivered, st.DroppedByCrash)
	}
	// Both sends left an up sender, so both count bytes on the wire —
	// the receiver-down drop happens at delivery.
	if net.KindBytes("ping") != 200 {
		t.Fatalf("KindBytes = %d, want 200", net.KindBytes("ping"))
	}
	if st.Retries != 1 || st.RetriesByKind["ping"] != 1 {
		t.Fatalf("retries = %d byKind=%v", st.Retries, st.RetriesByKind)
	}
}

func TestSetDropProb(t *testing.T) {
	for _, p := range []float64{1, 0} {
		k := sim.NewKernel(9)
		net := New(k, Config{DropProb: p})
		a := net.AddNode(0, 0)
		b := net.AddNode(1, 0)
		net.HandleAll(func(NodeID, Message) {})
		for i := 0; i < 10; i++ {
			net.Send(a.ID, b.ID, "x", nil, 1)
		}
		k.Run()
		want := 10 * int(1-p)
		if st := net.Stats(); st.DroppedByLoss != 10-want || st.MessagesDelivered != want {
			t.Fatalf("p=%v loss: %+v", p, st)
		}
	}
}
