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
	if a.X() != 3 || a.Y() != 4 {
		t.Fatalf("position = (%v,%v)", a.X(), a.Y())
	}
	if a.LowBandwidth() {
		t.Fatal("fresh node marked low-bandwidth")
	}
	a.SetLowBandwidth(true)
	if !a.LowBandwidth() || !net.Node(a.ID).LowBandwidth() {
		t.Fatal("SetLowBandwidth not visible through a second handle")
	}
	a.SetDown(true)
	if !a.Down() {
		t.Fatal("SetDown not visible")
	}
	a.SetDown(false)
	if net.Distance(a.ID, net.AddNode(0, 0).ID) != 5 {
		t.Fatal("distance through SoA coordinates wrong")
	}
}

func TestNodesAndNodeByAddr(t *testing.T) {
	k := sim.NewKernel(4)
	net := New(k, Config{})
	for i := 0; i < 5; i++ {
		net.AddNode(float64(i), 0)
	}
	all := net.Nodes()
	if len(all) != 5 {
		t.Fatalf("Nodes() = %d handles", len(all))
	}
	for i, nd := range all {
		if int(nd.ID) != i {
			t.Fatalf("handle %d has ID %d", i, nd.ID)
		}
		got, ok := net.NodeByAddr(nd.Addr())
		if !ok || got != nd.ID {
			t.Fatalf("NodeByAddr(%v) = %d,%v", nd.Addr(), got, ok)
		}
	}
	// The interned table must track nodes added after it was built.
	late := net.AddNode(9, 9)
	got, ok := net.NodeByAddr(late.Addr())
	if !ok || got != late.ID {
		t.Fatal("NodeByAddr misses a node added after interning")
	}
}

// TestGlobalHandlerOrderAndAccounting: HandleAll handlers fire before
// the destination's own, and a global handler alone counts as "has
// handlers" for the no-handler drop accounting.
func TestGlobalHandlerOrderAndAccounting(t *testing.T) {
	k := sim.NewKernel(6)
	net := New(k, Config{})
	src := net.AddNode(0, 0)
	dst := net.AddNode(1, 0)
	bare := net.AddNode(2, 0) // no per-node handler
	var order []string
	net.HandleAll(func(to NodeID, m Message) {
		order = append(order, "global->"+string(rune('0'+int(to))))
	})
	dst.Handle(func(m Message) { order = append(order, "local") })
	net.Send(src.ID, dst.ID, "a", nil, 8)
	net.Send(src.ID, bare.ID, "b", nil, 8)
	k.Run()
	want := []string{"global->1", "local", "global->2"}
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
	b.Handle(func(m Message) {})
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
	k := sim.NewKernel(9)
	net := New(k, Config{})
	a := net.AddNode(0, 0)
	b := net.AddNode(1, 0)
	b.Handle(func(m Message) {})
	net.SetDropProb(1)
	for i := 0; i < 10; i++ {
		net.Send(a.ID, b.ID, "x", nil, 1)
	}
	k.Run()
	if st := net.Stats(); st.DroppedByLoss != 10 || st.MessagesDelivered != 0 {
		t.Fatalf("p=1 loss: %+v", st)
	}
	net.SetDropProb(0)
	net.Send(a.ID, b.ID, "x", nil, 1)
	k.Run()
	if st := net.Stats(); st.MessagesDelivered != 1 {
		t.Fatalf("p=0 still losing: %+v", st)
	}
}
