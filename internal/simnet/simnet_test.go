package simnet

import (
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/sim"
)

func uniformNet(t *testing.T, n int, base time.Duration) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel(7)
	net := New(k, Config{BaseLatency: base})
	for i := 0; i < n; i++ {
		net.AddNode(0, 0)
	}
	return k, net
}

func TestDeliveryAndLatency(t *testing.T) {
	k, net := uniformNet(t, 2, 100*time.Millisecond)
	var gotAt time.Duration
	var got Message
	net.HandleAll(func(_ NodeID, m Message) { gotAt = k.Now(); got = m })
	net.Send(0, 1, "test", "hello", 42)
	k.Run()
	if gotAt != 100*time.Millisecond {
		t.Fatalf("delivered at %v, want 100ms", gotAt)
	}
	if got.Payload.(string) != "hello" || got.Size != 42 || got.From != 0 {
		t.Fatalf("message mangled: %+v", got)
	}
}

func TestDistanceLatency(t *testing.T) {
	k := sim.NewKernel(1)
	net := New(k, Config{BaseLatency: 10 * time.Millisecond, LatencyPerUnit: time.Millisecond})
	net.AddNode(0, 0)
	net.AddNode(3, 4) // distance 5
	if lat := net.Latency(0, 1); lat != 15*time.Millisecond {
		t.Fatalf("latency = %v, want 15ms", lat)
	}
}

func TestByteAccounting(t *testing.T) {
	k, net := uniformNet(t, 3, time.Millisecond)
	net.HandleAll(func(NodeID, Message) {})
	net.Send(0, 1, "a", nil, 100)
	net.Send(0, 2, "a", nil, 50)
	net.Send(0, 1, "b", nil, 7)
	k.Run()
	s := net.Stats()
	if s.BytesSent != 157 {
		t.Fatalf("bytes = %d, want 157", s.BytesSent)
	}
	if s.ByKind["a"] != 150 || s.ByKind["b"] != 7 {
		t.Fatalf("by kind = %v", s.ByKind)
	}
	if s.MessagesSent != 3 || s.MessagesDelivered != 3 {
		t.Fatalf("counts = %+v", s)
	}
	net.ResetStats()
	if got := net.Stats(); got.BytesSent != 0 || len(got.ByKind) != 0 {
		t.Fatalf("reset failed: %+v", got)
	}
}

func TestCrashedNodes(t *testing.T) {
	k, net := uniformNet(t, 2, time.Millisecond)
	delivered := 0
	net.HandleAll(func(NodeID, Message) { delivered++ })

	net.Node(1).SetDown(true)
	net.Send(0, 1, "x", nil, 1)
	k.Run()
	if delivered != 0 {
		t.Fatal("delivered to a down node")
	}
	// Crashed sender pays nothing and sends nothing.
	net.ResetStats()
	net.Node(1).SetDown(false)
	net.Node(0).SetDown(true)
	net.Send(0, 1, "x", nil, 1)
	k.Run()
	if s := net.Stats(); s.MessagesSent != 0 || s.BytesSent != 0 {
		t.Fatalf("down sender accounted: %+v", s)
	}
	// Recovery: node comes back up and receives again.
	net.Node(0).SetDown(false)
	net.Send(0, 1, "x", nil, 1)
	k.Run()
	if delivered != 1 {
		t.Fatal("recovered node did not receive")
	}
}

func TestPartitions(t *testing.T) {
	k, net := uniformNet(t, 2, time.Millisecond)
	delivered := 0
	net.HandleAll(func(NodeID, Message) { delivered++ })
	net.SetPartition(0, 1) // node 0 in group 1, node 1 in group 0
	net.Send(0, 1, "x", nil, 1)
	k.Run()
	if delivered != 0 {
		t.Fatal("message crossed a partition")
	}
	net.ClearPartitions()
	net.Send(0, 1, "x", nil, 1)
	k.Run()
	if delivered != 1 {
		t.Fatal("healed partition did not deliver")
	}
}

func TestDropProbability(t *testing.T) {
	k := sim.NewKernel(11)
	net := New(k, Config{BaseLatency: time.Millisecond, DropProb: 0.5})
	net.AddNode(0, 0)
	net.AddNode(0, 0)
	delivered := 0
	net.HandleAll(func(NodeID, Message) { delivered++ })
	const total = 2000
	for i := 0; i < total; i++ {
		net.Send(0, 1, "x", nil, 1)
	}
	k.Run()
	if delivered < total*4/10 || delivered > total*6/10 {
		t.Fatalf("delivered %d of %d with p=0.5", delivered, total)
	}
	s := net.Stats()
	if s.MessagesDropped+s.MessagesDelivered != total {
		t.Fatalf("drop+deliver != sent: %+v", s)
	}
}

func TestAddRandomNodesDomains(t *testing.T) {
	k := sim.NewKernel(3)
	net := New(k, Config{})
	nodes := net.AddRandomNodes(200, 10, 5)
	if net.Len() != 200 {
		t.Fatalf("len = %d", net.Len())
	}
	seen := map[int]bool{}
	for _, nd := range nodes {
		if x, y := net.xs[nd.ID], net.ys[nd.ID]; x < 0 || x > 10 || y < 0 || y > 10 {
			t.Fatalf("node outside extent: %+v", nd)
		}
		if nd.Domain() < 0 || nd.Domain() >= 5 {
			t.Fatalf("bad domain %d", nd.Domain())
		}
		seen[nd.Domain()] = true
		if nd.Addr() == guid.Zero {
			t.Fatal("node has zero GUID")
		}
	}
	if len(seen) != 5 {
		t.Fatalf("domains used = %d, want 5", len(seen))
	}
}

func TestUnhandledDeliveryCountsAsDrop(t *testing.T) {
	k, net := uniformNet(t, 2, time.Millisecond)
	net.Send(0, 1, "x", nil, 1)
	k.Run()
	if s := net.Stats(); s.MessagesDropped != 1 || s.DroppedNoHandler != 1 {
		t.Fatalf("no-handler delivery should drop: %+v", s)
	}
}

func TestCrashIsFirstClass(t *testing.T) {
	k, net := uniformNet(t, 3, time.Millisecond)
	delivered := 0
	net.HandleAll(func(NodeID, Message) { delivered++ })

	// A crashed node sheds its partition state and takes no new state
	// while down.
	net.SetPartition(1, 5)
	net.Crash(1)
	net.Crash(1)           // idempotent: no second crash
	net.SetPartition(1, 7) // ignored: the machine is off
	net.Send(0, 1, "x", nil, 1)
	k.Run()
	if delivered != 0 {
		t.Fatal("delivered to a crashed node")
	}
	s := net.Stats()
	if s.DroppedByCrash != 1 || s.Crashes != 1 {
		t.Fatalf("crash accounting: %+v", s)
	}

	// Recovery rejoins group 0: node 0 is also in group 0, so traffic
	// flows despite the pre-crash group-5 assignment.
	net.Recover(1)
	net.Recover(1) // idempotent
	net.Send(0, 1, "x", nil, 1)
	k.Run()
	if delivered != 1 {
		t.Fatal("recovered node did not receive")
	}
	if s := net.Stats(); s.Recoveries != 1 {
		t.Fatalf("recovery accounting: %+v", s)
	}
}

// TestSendOutOfRangePanics: a send naming a node the network never
// placed is a caller bug, not a message to drop.
func TestSendOutOfRangePanics(t *testing.T) {
	_, net := uniformNet(t, 2, time.Millisecond)
	for _, ends := range [][2]NodeID{{0, 2}, {2, 0}, {-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("send %d->%d did not panic", ends[0], ends[1])
				}
			}()
			net.Send(ends[0], ends[1], "x", nil, 1)
		}()
	}
}

func TestScheduledChurn(t *testing.T) {
	k, net := uniformNet(t, 2, time.Millisecond)
	delivered := 0
	net.HandleAll(func(NodeID, Message) { delivered++ })
	net.CrashAt(10*time.Millisecond, 1)
	net.RecoverAt(30*time.Millisecond, 1)
	// One message lands in the down window, one after recovery.
	k.At(15*time.Millisecond, func() { net.Send(0, 1, "x", nil, 1) })
	k.At(35*time.Millisecond, func() { net.Send(0, 1, "x", nil, 1) })
	k.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 (crash window drops the first)", delivered)
	}
	s := net.Stats()
	if s.DroppedByCrash != 1 || s.Crashes != 1 || s.Recoveries != 1 {
		t.Fatalf("churn accounting: %+v", s)
	}
}

func TestDirectDeliverRespectsCrash(t *testing.T) {
	k, net := uniformNet(t, 2, time.Millisecond)
	delivered := 0
	net.HandleAll(func(NodeID, Message) { delivered++ })
	net.Crash(1)
	if net.deliver(Message{From: 0, To: 1, Kind: "x", Size: 1}) {
		t.Fatal("direct delivery reached a crashed node")
	}
	net.Recover(1)
	if !net.deliver(Message{From: 0, To: 1, Kind: "x", Size: 1}) || delivered != 1 {
		t.Fatal("direct delivery to a live node failed")
	}
	_ = k
}

func TestSenderCrashDropAccounting(t *testing.T) {
	k, net := uniformNet(t, 2, time.Millisecond)
	net.HandleAll(func(NodeID, Message) {})
	net.Crash(0)
	net.Send(0, 1, "x", nil, 1)
	k.Run()
	s := net.Stats()
	if s.MessagesSent != 0 || s.BytesSent != 0 {
		t.Fatalf("down sender accounted as sent: %+v", s)
	}
	if s.MessagesDropped != 1 || s.DroppedByCrash != 1 {
		t.Fatalf("down sender loss not counted: %+v", s)
	}
}

type testPlan struct {
	drop  func(m Message) bool
	delay time.Duration
}

func (p testPlan) FilterSend(m Message, _ time.Duration) (bool, time.Duration) {
	return p.drop(m), p.delay
}

func TestFaultPlanHook(t *testing.T) {
	k, net := uniformNet(t, 2, 10*time.Millisecond)
	var at time.Duration
	net.HandleAll(func(NodeID, Message) { at = k.Now() })
	net.SetFaultPlan(testPlan{drop: func(m Message) bool { return m.Kind == "cut" }, delay: 5 * time.Millisecond})
	net.Send(0, 1, "cut", nil, 1)
	net.Send(0, 1, "ok", nil, 1)
	k.Run()
	if at != 15*time.Millisecond {
		t.Fatalf("plan delay not applied: delivered at %v", at)
	}
	s := net.Stats()
	if s.DroppedByFault != 1 || s.MessagesDelivered != 1 {
		t.Fatalf("plan drop accounting: %+v", s)
	}
	net.SetFaultPlan(nil)
	net.Send(0, 1, "cut", nil, 1)
	k.Run()
	if s := net.Stats(); s.MessagesDelivered != 2 {
		t.Fatal("removing the plan did not restore delivery")
	}
}

func TestRetryCounters(t *testing.T) {
	_, net := uniformNet(t, 1, 0)
	net.NoteRetry("route")
	net.NoteRetry("route")
	net.NoteRetry("arch-req")
	s := net.Stats()
	if s.Retries != 3 || s.RetriesByKind["route"] != 2 || s.RetriesByKind["arch-req"] != 1 {
		t.Fatalf("retry counters: %+v", s)
	}
	net.ResetStats()
	if s := net.Stats(); s.Retries != 0 || len(s.RetriesByKind) != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
}
