package simnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
)

func newTestNet(seed int64, n int, cfg Config) (*sim.Kernel, *Network) {
	k := sim.NewKernel(seed)
	net := New(k, cfg)
	net.AddRandomNodes(n, 100, 4)
	return k, net
}

// TestPartitionConservation: while a partition is active, not one
// message crosses it — every cross-group send is accounted under
// DroppedByPartition and never reaches a handler.
func TestPartitionConservation(t *testing.T) {
	k, net := newTestNet(1, 20, Config{BaseLatency: 10 * time.Millisecond})
	group := func(id NodeID) int { return int(id) % 2 }
	for i := 0; i < 20; i++ {
		net.SetPartition(NodeID(i), group(NodeID(i)))
	}
	delivered := make(map[NodeID][]NodeID) // to -> froms
	net.HandleAll(func(to NodeID, m Message) {
		delivered[to] = append(delivered[to], m.From)
	})
	cross := 0
	rng := k.Rand()
	for s := 0; s < 500; s++ {
		from := NodeID(rng.Intn(20))
		to := NodeID(rng.Intn(20))
		if from == to {
			continue
		}
		if group(from) != group(to) {
			cross++
		}
		net.Send(from, to, "probe", s, 64)
	}
	k.RunFor(time.Second)
	for to, froms := range delivered {
		for _, from := range froms {
			if group(from) != group(to) {
				t.Fatalf("message crossed partition: %d (g%d) -> %d (g%d)",
					from, group(from), to, group(to))
			}
		}
	}
	st := net.Stats()
	if st.DroppedByPartition != cross {
		t.Fatalf("DroppedByPartition = %d, want %d (every cross-group send)",
			st.DroppedByPartition, cross)
	}
	if cross == 0 {
		t.Fatal("scenario generated no cross-partition traffic")
	}
}

// TestPerLinkByteConservation: the per-link byte counts sum exactly
// to Stats.BytesSent, which matches a manual tally of every size handed
// to Send by a live sender — dropped messages included, crashed senders
// excluded.
func TestPerLinkByteConservation(t *testing.T) {
	k, net := newTestNet(2, 16, Config{
		BaseLatency: 5 * time.Millisecond,
		DropProb:    0.2, // exercise the loss path
	})
	reg := obs.NewRegistry()
	net.Instrument(reg, nil)
	net.HandleAll(func(NodeID, Message) {})
	net.Crash(3) // crashed sender pays no bytes
	net.SetPartition(5, 1)

	var manual int64
	rng := k.Rand()
	for s := 0; s < 800; s++ {
		from := NodeID(rng.Intn(16))
		to := NodeID(rng.Intn(16))
		size := 32 + rng.Intn(256)
		if !net.Node(from).Down() {
			manual += int64(size)
		}
		net.Send(from, to, "bulk", s, size)
	}
	k.RunFor(time.Second)

	st := net.Stats()
	if st.BytesSent != manual {
		t.Fatalf("Stats.BytesSent = %d, manual tally %d", st.BytesSent, manual)
	}
	var linkSum, aggregate int64
	for _, m := range reg.Snapshot() {
		if m.Key.Layer != "simnet" || m.Kind != "counter" {
			continue
		}
		if m.Key.Name == "link_bytes" {
			linkSum = m.Count
		}
		if m.Key.Name == "bytes_sent" {
			aggregate = m.Count
		}
	}
	if linkSum != manual {
		t.Fatalf("per-link byte sum = %d, want %d", linkSum, manual)
	}
	if aggregate != manual {
		t.Fatalf("bytes_sent counter = %d, want %d", aggregate, manual)
	}
	if st.DroppedByLoss == 0 || st.DroppedByCrash == 0 || st.DroppedByPartition == 0 {
		t.Fatalf("scenario failed to exercise all drop paths: %+v", st)
	}
}

// relayWorld wires handlers that re-send on delivery, so delivery has
// to preserve ordering even for traffic generated inside a flush.
func relayWorld(seed int64) []TraceEvent {
	k := sim.NewKernel(seed)
	net := New(k, Config{BaseLatency: 10 * time.Millisecond})
	net.AddRandomNodes(12, 0, 1) // extent 0: all latencies equal -> same-tick batches
	var events []TraceEvent
	net.SetTrace(func(ev TraceEvent) { events = append(events, ev) })
	net.HandleAll(func(id NodeID, m Message) {
		hops := m.Payload.(int)
		if hops > 0 {
			// Fan the relay out to two neighbours on the same tick.
			net.Send(id, (m.From+1)%12, m.Kind, hops-1, m.Size/2+1)
			net.Send(id, (m.From+5)%12, m.Kind, hops-1, m.Size/2+1)
		}
	})
	net.CrashAt(35*time.Millisecond, 7)
	net.RecoverAt(60*time.Millisecond, 7)
	for i := 0; i < 12; i++ {
		net.Send(NodeID(i), NodeID((i*3+1)%12), fmt.Sprintf("k%d", i%3), 3, 128)
	}
	k.RunFor(time.Second)
	return events
}

// goldenRelayOrder is the SHA-256 of relayWorld(9)'s 362-event trace,
// recorded from a reference delivery path that scheduled one kernel
// event per message.  It is the order contract per-tick batching must
// keep: among deliveries, same events, same order, same times as a
// (time, send-seq) heap — including relays generated mid-flush and a
// crash window.
const goldenRelayOrder = "db2779907ecc12aeee2886af98ec68358ea3c47a8a59b65339942863125d598c"

func TestDeliveryOrderPinned(t *testing.T) {
	events := relayWorld(9)
	h := sha256.New()
	for _, ev := range events {
		fmt.Fprintf(h, "%d %d %d %s %d %s\n", ev.Time, ev.From, ev.To, ev.Kind, ev.Size, ev.Event)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRelayOrder || len(events) != 362 {
		t.Fatalf("delivery order changed (%d events):\n got  %s\n want %s", len(events), got, goldenRelayOrder)
	}
}

// TestTimerBetweenSameTickSends pins the one place per-tick batching
// is visible to a layer that mixes timers with deliveries: a timer due
// on a tick, armed between two sends due on that same tick, runs after
// BOTH deliveries — the batch holds the kernel position of the tick's
// first send — while a timer armed before the first send still runs
// ahead of them.
func TestTimerBetweenSameTickSends(t *testing.T) {
	k := sim.NewKernel(1)
	net := New(k, Config{BaseLatency: 10 * time.Millisecond})
	a := net.AddNode(0, 0).ID
	b := net.AddNode(0, 0).ID
	var order []string
	net.HandleAll(func(_ NodeID, m Message) { order = append(order, m.Kind) })
	due := net.Latency(a, b)
	k.At(due, func() { order = append(order, "timer-before") })
	net.Send(a, b, "first", nil, 8)
	k.At(due, func() { order = append(order, "timer-between") })
	net.Send(a, b, "second", nil, 8)
	k.Run()
	want := []string{"timer-before", "first", "second", "timer-between"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("same-tick order = %v, want %v", order, want)
	}
	if k.Now() != due {
		t.Fatalf("everything was due at %v, clock ended at %v", due, k.Now())
	}
}

// TestGrowAtDeterminism: incremental growth is part of the seeded
// trajectory — same seed, same grow schedule, identical node placement
// and topology-callback batches.
func TestGrowAtDeterminism(t *testing.T) {
	build := func() (*Network, *[]int) {
		k := sim.NewKernel(17)
		net := New(k, Config{BaseLatency: time.Millisecond})
		net.AddRandomNodes(8, 50, 2)
		var batches []int
		net.OnTopology(func(added []Node) { batches = append(batches, len(added)) })
		net.GrowAt(10*time.Millisecond, 5, 50, 2)
		net.GrowAt(30*time.Millisecond, 3, 50, 2)
		k.RunFor(time.Second)
		return net, &batches
	}
	a, ab := build()
	b, bb := build()
	if a.Len() != 16 || b.Len() != 16 {
		t.Fatalf("growth lost nodes: %d, %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		na, nb := a.Node(NodeID(i)), b.Node(NodeID(i))
		if na.Addr() != nb.Addr() || a.xs[i] != b.xs[i] || a.ys[i] != b.ys[i] || na.Domain() != nb.Domain() {
			t.Fatalf("node %d diverged across identical runs", i)
		}
	}
	if fmt.Sprint(*ab) != fmt.Sprint(*bb) {
		t.Fatalf("topology batches diverged: %v vs %v", *ab, *bb)
	}
	if want := fmt.Sprint([]int{5, 3}); fmt.Sprint(*ab) != want {
		t.Fatalf("topology batches = %v, want %v", *ab, want)
	}
}
