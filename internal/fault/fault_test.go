package fault

import (
	"reflect"
	"testing"
	"time"

	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

func testNet(seed int64, n int) (*sim.Kernel, *simnet.Network) {
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{BaseLatency: 10 * time.Millisecond})
	for i := 0; i < n; i++ {
		net.AddNode(0, 0)
	}
	return k, net
}

func TestLinkRuleDropRate(t *testing.T) {
	k, net := testNet(1, 2)
	net.HandleAll(func(simnet.NodeID, simnet.Message) {})
	e := Install(net, *NewPlan("p").Drop(0.5))
	const total = 2000
	for i := 0; i < total; i++ {
		net.Send(0, 1, "x", nil, 1)
	}
	k.Run()
	s := net.Stats()
	if s.DroppedByFault < total*4/10 || s.DroppedByFault > total*6/10 {
		t.Fatalf("dropped %d of %d at p=0.5", s.DroppedByFault, total)
	}
	if e.RuleDrops[0] != s.DroppedByFault {
		t.Fatalf("rule accounting %d != stat %d", e.RuleDrops[0], s.DroppedByFault)
	}
}

func TestKindAndEndpointFilters(t *testing.T) {
	k, net := testNet(2, 3)
	net.HandleAll(func(simnet.NodeID, simnet.Message) {})
	plan := Plan{Name: "filters", Links: []LinkRule{
		{Kinds: []string{"cut"}, DropProb: 1},
		{From: []simnet.NodeID{0}, To: []simnet.NodeID{2}, DropProb: 1},
	}}
	Install(net, plan)
	net.Send(0, 1, "cut", nil, 1) // killed by kind rule
	net.Send(0, 2, "ok", nil, 1)  // killed by endpoint rule
	net.Send(0, 1, "ok", nil, 1)  // survives
	k.Run()
	s := net.Stats()
	if s.DroppedByFault != 2 || s.MessagesDelivered != 1 {
		t.Fatalf("filters: %+v", s)
	}
}

func TestRuleWindow(t *testing.T) {
	k, net := testNet(3, 2)
	net.HandleAll(func(simnet.NodeID, simnet.Message) {})
	plan := Plan{Links: []LinkRule{{DropProb: 1, Start: 10 * time.Second, End: 20 * time.Second}}}
	Install(net, plan)
	send := func(at time.Duration) { k.At(at, func() { net.Send(0, 1, "x", nil, 1) }) }
	send(5 * time.Second)  // before window: delivered
	send(15 * time.Second) // inside window: dropped
	send(25 * time.Second) // after window: delivered
	k.Run()
	s := net.Stats()
	if s.MessagesDelivered != 2 || s.DroppedByFault != 1 {
		t.Fatalf("window: %+v", s)
	}
}

func TestDelayAndJitterBounds(t *testing.T) {
	k, net := testNet(4, 2)
	var times []time.Duration
	net.HandleAll(func(simnet.NodeID, simnet.Message) { times = append(times, k.Now()) })
	Install(net, *NewPlan("j").Jitter(40*time.Millisecond, 20*time.Millisecond))
	for i := 0; i < 50; i++ {
		net.Send(0, 1, "x", nil, 1)
	}
	k.Run()
	if len(times) != 50 {
		t.Fatalf("delivered %d", len(times))
	}
	for _, at := range times {
		// base 10ms + delay 40ms + jitter [0, 20ms)
		if at < 50*time.Millisecond || at >= 70*time.Millisecond {
			t.Fatalf("delivery at %v outside [50ms, 70ms)", at)
		}
	}
}

func TestChurnSchedule(t *testing.T) {
	k, net := testNet(5, 4)
	delivered := 0
	net.HandleAll(func(simnet.NodeID, simnet.Message) { delivered++ })
	Install(net, *NewPlan("c").CrashWindow(2, 10*time.Second, 30*time.Second))
	k.At(20*time.Second, func() { net.Send(0, 2, "x", nil, 1) }) // down window
	k.At(40*time.Second, func() { net.Send(0, 2, "x", nil, 1) }) // recovered
	k.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	s := net.Stats()
	if s.Crashes != 1 || s.Recoveries != 1 || s.DroppedByCrash != 1 {
		t.Fatalf("churn stats: %+v", s)
	}
}

func TestPartitionScheduleAndHeal(t *testing.T) {
	k, net := testNet(6, 4)
	delivered := 0
	net.HandleAll(func(simnet.NodeID, simnet.Message) { delivered++ })
	p := NewPlan("p").PartitionWindow([]simnet.NodeID{2, 3}, 1, 10*time.Second, 30*time.Second)
	Install(net, *p)
	k.At(20*time.Second, func() { net.Send(0, 3, "x", nil, 1) }) // across the cut
	k.At(20*time.Second, func() { net.Send(2, 3, "x", nil, 1) }) // same side
	k.At(40*time.Second, func() { net.Send(0, 3, "x", nil, 1) }) // healed
	k.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2 (same-side + post-heal)", delivered)
	}
	if s := net.Stats(); s.DroppedByPartition != 1 {
		t.Fatalf("partition stats: %+v", s)
	}
}

func TestUninstallDisarms(t *testing.T) {
	k, net := testNet(7, 2)
	delivered := 0
	net.HandleAll(func(simnet.NodeID, simnet.Message) { delivered++ })
	e := Install(net, *NewPlan("p").Drop(1))
	net.Send(0, 1, "x", nil, 1)
	e.Uninstall()
	net.Send(0, 1, "x", nil, 1)
	k.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d after uninstall, want 1", delivered)
	}
}

// TestEngineDeterminism is the package-local half of the determinism
// story: the same (seed, plan) pair must produce identical stats and
// event traces; different seeds must diverge.
func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) (simnet.Stats, []simnet.TraceEvent) {
		k, net := testNet(seed, 8)
		net.HandleAll(func(simnet.NodeID, simnet.Message) {})
		var trace []simnet.TraceEvent
		net.SetTrace(func(ev simnet.TraceEvent) { trace = append(trace, ev) })
		Install(net, DemoChaosPlan(8))
		for i := 0; i < 200; i++ {
			at := time.Duration(i) * 500 * time.Millisecond
			from, to := simnet.NodeID(i%8), simnet.NodeID((i+3)%8)
			k.At(at, func() { net.Send(from, to, "x", nil, 64) })
		}
		k.Run()
		return net.Stats(), trace
	}
	s1, t1 := run(42)
	s2, t2 := run(42)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("same seed: traces diverged (%d vs %d events)", len(t1), len(t2))
	}
	s3, _ := run(43)
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced identical stats")
	}
}
