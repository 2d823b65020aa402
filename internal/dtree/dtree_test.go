package dtree

import (
	"slices"
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

func build(t *testing.T, n, fanout int, seed int64) (*sim.Kernel, *simnet.Network, *Tree) {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{BaseLatency: 10 * time.Millisecond, LatencyPerUnit: time.Millisecond})
	net.AddRandomNodes(n, 100, 1)
	tr := New(net, 0, fanout)
	for i := 1; i < n; i++ {
		if err := tr.Join(simnet.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return k, net, tr
}

func TestJoinBuildsBoundedFanoutTree(t *testing.T) {
	_, _, tr := build(t, 50, 3, 1)
	if len(tr.Members()) != 50 {
		t.Fatalf("members = %d", len(tr.Members()))
	}
	// Every non-root has a parent; fanout bound holds.
	childCount := map[simnet.NodeID]int{}
	for i := 1; i < 50; i++ {
		p, err := tr.Parent(simnet.NodeID(i))
		if err != nil || p == simnet.None {
			t.Fatalf("node %d parentless: %v", i, err)
		}
		childCount[p]++
	}
	for p, c := range childCount {
		if c > 3 {
			t.Fatalf("node %d has %d children > fanout 3", p, c)
		}
	}
	if tr.Root() != 0 || tr.Depth(0) != 0 {
		t.Fatalf("root %d at depth %d, want node 0 at 0", tr.Root(), tr.Depth(0))
	}
	if tr.Depth(simnet.NodeID(999)) != -1 {
		t.Fatal("non-member depth must be -1")
	}
	if _, err := tr.Parent(simnet.NodeID(999)); err == nil {
		t.Fatal("a non-member has a parent")
	}
	// Rejoining is a no-op.
	if err := tr.Join(simnet.NodeID(5)); err != nil {
		t.Fatal(err)
	}
	if len(tr.Members()) != 50 {
		t.Fatal("rejoin changed membership")
	}
	// A node finds no parent when every member is full or down.
	narrow := New(tr.net, 0, 1)
	if err := narrow.Join(simnet.NodeID(1)); err != nil {
		t.Fatal(err)
	}
	tr.net.Crash(1)
	if err := narrow.Join(simnet.NodeID(2)); err == nil {
		t.Fatal("joined under a full root and a down member")
	}
}

func TestPushReachesAllMembers(t *testing.T) {
	k, _, tr := build(t, 40, 4, 2)
	got := map[simnet.NodeID]Delivery{}
	tr.OnDeliver(func(n simnet.NodeID, d Delivery) { got[n] = d })
	tr.Push(Delivery{Payload: "update-7", Pos: 7, Size: 4096})
	k.RunFor(10 * time.Second)
	if len(got) != 40 {
		t.Fatalf("delivered to %d/40", len(got))
	}
	for n, d := range got {
		// Every hop relays the root's log position, whatever its depth.
		if d.Payload != "update-7" || d.Pos != 7 || d.Size != 4096 || d.Depth != tr.Depth(n) {
			t.Fatalf("node %d got %+v", n, d)
		}
	}
}

func TestLowBandwidthLeafGetsInvalidation(t *testing.T) {
	k, net, tr := build(t, 20, 4, 3)
	// Pick a leaf (a node with no children) and mark it low-bandwidth.
	var leaf simnet.NodeID = -1
	for i := 1; i < 20; i++ {
		isParent := false
		for j := 1; j < 20; j++ {
			if p, _ := tr.Parent(simnet.NodeID(j)); p == simnet.NodeID(i) {
				isParent = true
				break
			}
		}
		if !isParent {
			leaf = simnet.NodeID(i)
			break
		}
	}
	if leaf < 0 {
		t.Fatal("no leaf found")
	}
	net.Node(leaf).SetLowBandwidth(true)

	deliveries := map[simnet.NodeID]Delivery{}
	tr.OnDeliver(func(n simnet.NodeID, d Delivery) { deliveries[n] = d })
	net.ResetStats()
	tr.Push(Delivery{Payload: "big-update", Size: 1 << 20})
	k.RunFor(10 * time.Second)

	d, ok := deliveries[leaf]
	if !ok {
		t.Fatal("leaf received nothing")
	}
	if !d.Invalidated || d.Payload != nil {
		t.Fatalf("leaf got full update, want invalidation: %+v", d)
	}
	// Everyone else got the payload.
	full := 0
	for n, dd := range deliveries {
		if n != leaf && !dd.Invalidated {
			full++
		}
	}
	if full != 19 {
		t.Fatalf("full deliveries = %d, want 19", full)
	}
	// Invalidation traffic is tiny compared to update traffic.
	s := net.Stats()
	if s.ByKind[KindInvalidate] >= s.ByKind[KindUpdate]/10 {
		t.Fatalf("invalidation bytes %d not small vs update bytes %d",
			s.ByKind[KindInvalidate], s.ByKind[KindUpdate])
	}

	// A low-bandwidth inner node passes invalidations, not the update,
	// to everything below it.
	inner, _ := tr.Parent(leaf)
	if inner == tr.Root() {
		t.Fatal("setup: the leaf hangs off the root")
	}
	net.Node(inner).SetLowBandwidth(true)
	clear(deliveries)
	tr.Push(Delivery{Payload: "second", Size: 1 << 20})
	k.RunFor(10 * time.Second)
	for n, dd := range deliveries {
		below := false
		for p := n; p != simnet.None; p, _ = tr.Parent(p) {
			below = below || p == inner
		}
		if dd.Invalidated != below {
			t.Fatalf("node %d (below the low-bandwidth node %d: %v) got %+v", n, inner, below, dd)
		}
	}
	if len(deliveries) != 20 || !deliveries[leaf].Invalidated {
		t.Fatalf("%d deliveries, the leaf's %+v", len(deliveries), deliveries[leaf])
	}
}

func TestPullFetchesFromParent(t *testing.T) {
	k, net, tr := build(t, 10, 3, 4)
	leafID := simnet.NodeID(9)
	net.Node(leafID).SetLowBandwidth(true)

	tr.OnPull(func(parent simnet.NodeID) (any, int) { return "fresh-state", 2048 })
	var got *Delivery
	if err := tr.Pull(leafID, func(d Delivery) { got = &d }); err != nil {
		t.Fatal(err)
	}
	k.RunFor(5 * time.Second)
	if got == nil || got.Payload.(string) != "fresh-state" {
		t.Fatalf("pull result: %+v", got)
	}
	// The root cannot pull.
	if err := tr.Pull(0, nil); err == nil {
		t.Fatal("root pull accepted")
	}
	// Non-members cannot pull.
	if err := tr.Pull(simnet.NodeID(999), nil); err == nil {
		t.Fatal("non-member pull accepted")
	}
}

func TestLeaveReattachesChildren(t *testing.T) {
	k, _, tr := build(t, 30, 2, 5)
	// Find an inner node with children.
	var inner simnet.NodeID = -1
	for i := 1; i < 30; i++ {
		for j := 1; j < 30; j++ {
			if p, _ := tr.Parent(simnet.NodeID(j)); p == simnet.NodeID(i) {
				inner = simnet.NodeID(i)
				break
			}
		}
		if inner >= 0 {
			break
		}
	}
	if err := tr.Leave(inner); err != nil {
		t.Fatal(err)
	}
	if len(tr.Members()) != 29 {
		t.Fatalf("len = %d", len(tr.Members()))
	}
	// Everyone still reachable by a push.
	got := map[simnet.NodeID]bool{}
	tr.OnDeliver(func(n simnet.NodeID, d Delivery) { got[n] = true })
	tr.Push(Delivery{Payload: "after-leave", Size: 100})
	k.RunFor(10 * time.Second)
	if len(got) != 29 {
		t.Fatalf("push reached %d/29 after leave", len(got))
	}
	if err := tr.Leave(0); err == nil {
		t.Fatal("root leave accepted")
	}
	if err := tr.Leave(simnet.NodeID(999)); err == nil {
		t.Fatal("non-member leave accepted")
	}
}

// TestLeaveWithUpdateInFlight: replica management retires members
// while pushes are still on the wire.  A departed member must drop the
// stale delivery — not apply it, not forward it, and above all not
// crash on its deleted membership record.
func TestLeaveWithUpdateInFlight(t *testing.T) {
	k, _, tr := build(t, 30, 2, 8)
	got := map[simnet.NodeID]bool{}
	tr.OnDeliver(func(n simnet.NodeID, d Delivery) { got[n] = true })
	// Find a child of the root that itself has children: Push sends to
	// root children synchronously, so retiring one right after Push
	// guarantees a stale in-flight delivery, and its deleted member
	// record is what forward() would chase.
	var inner simnet.NodeID = -1
	for i := 1; i < 30 && inner < 0; i++ {
		if p, _ := tr.Parent(simnet.NodeID(i)); p != 0 {
			continue
		}
		for j := 1; j < 30; j++ {
			if p, _ := tr.Parent(simnet.NodeID(j)); p == simnet.NodeID(i) {
				inner = simnet.NodeID(i)
				break
			}
		}
	}
	if inner < 0 {
		t.Fatal("no root child with children")
	}
	tr.Push(Delivery{Payload: "mid-flight", Size: 1024})
	// The push's messages are queued but undelivered; retire the inner
	// node now, exactly what introspective demotion does under load.
	if err := tr.Leave(inner); err != nil {
		t.Fatal(err)
	}
	k.RunFor(time.Minute)
	if got[inner] {
		t.Fatal("departed member applied a stale delivery")
	}
	// Its reattached children still hear subsequent pushes.
	got = map[simnet.NodeID]bool{}
	tr.Push(Delivery{Payload: "after", Pos: 1, Size: 1024})
	k.RunFor(time.Minute)
	if len(got) != 29 {
		t.Fatalf("second push reached %d/29", len(got))
	}
}

func TestRepairAfterParentCrash(t *testing.T) {
	k, net, tr := build(t, 30, 2, 6)
	// Crash a third of the inner nodes.
	crashed := map[simnet.NodeID]bool{}
	for i := 1; i < 30; i += 3 {
		net.Crash(simnet.NodeID(i))
		crashed[simnet.NodeID(i)] = true
	}
	moved := tr.Repair()
	if moved == 0 {
		t.Fatal("repair moved nothing despite crashes")
	}
	// Survivors must all be reachable.
	got := map[simnet.NodeID]bool{}
	tr.OnDeliver(func(n simnet.NodeID, d Delivery) { got[n] = true })
	tr.Push(Delivery{Payload: "after-repair", Size: 100})
	k.RunFor(10 * time.Second)
	want := 0
	for i := 0; i < 30; i++ {
		if !crashed[simnet.NodeID(i)] {
			want++
		}
	}
	if len(got) < want {
		t.Fatalf("push reached %d, want %d live members", len(got), want)
	}
	// No member may have a crashed parent anymore.
	for i := 0; i < 30; i++ {
		id := simnet.NodeID(i)
		if crashed[id] || tr.Depth(id) < 0 || id == 0 {
			continue
		}
		p, _ := tr.Parent(id)
		if crashed[p] {
			t.Fatalf("node %d still parented to crashed %d", id, p)
		}
	}
}

func TestDepthsStayConsistentAfterReattach(t *testing.T) {
	_, net, tr := build(t, 30, 2, 7)
	for i := 1; i < 30; i += 4 {
		net.Crash(simnet.NodeID(i))
	}
	tr.Repair()
	// depth(child) == depth(parent) + 1 everywhere.
	for i := 1; i < 30; i++ {
		id := simnet.NodeID(i)
		if tr.Depth(id) < 0 {
			continue
		}
		p, err := tr.Parent(id)
		if err != nil || p == simnet.None {
			continue
		}
		if tr.Depth(id) != tr.Depth(p)+1 {
			t.Fatalf("node %d depth %d, parent %d depth %d", id, tr.Depth(id), p, tr.Depth(p))
		}
	}
}

func TestLatencyGreedyParentSelection(t *testing.T) {
	// A node joining next to an existing member should pick it, not a
	// distant one.
	k := sim.NewKernel(8)
	net := simnet.New(k, simnet.Config{BaseLatency: time.Millisecond, LatencyPerUnit: time.Millisecond})
	net.AddNode(0, 0)   // 0: root
	net.AddNode(100, 0) // 1: far member
	net.AddNode(100, 1) // 2: joins; nearest is 1
	tr := New(net, 0, 4)
	if err := tr.Join(1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Join(2); err != nil {
		t.Fatal(err)
	}
	p, _ := tr.Parent(2)
	if p != 1 {
		t.Fatalf("node 2 attached to %d, want 1", p)
	}
}

// TestNoticesToHolders: a push sends each holder only a notice, charges
// each message guid.Size for every holder below its receiver, and a
// holder that misses fetches the payload from its parent, then delivers
// and forwards it as if it had arrived whole.
func TestNoticesToHolders(t *testing.T) {
	k, net, tr := build(t, 30, 2, 9)
	var missed, holder simnet.NodeID = simnet.None, simnet.None
	var holders []simnet.NodeID
	for i := 1; i < 30; i++ {
		id := simnet.NodeID(i)
		if i%2 == 0 {
			holders = append(holders, id)
		}
		if tr.Depth(id) == 1 && missed == simnet.None {
			missed = id // an interior member, so its subtree waits on its fetch
			holders = append(holders, id)
		}
	}
	for _, h := range holders {
		if h != missed && tr.Depth(h) > 1 {
			holder = h
			break
		}
	}
	const noteSize, size = 61, 4096
	tr.OnNotice(Notices{
		Size: noteSize,
		Resolve: func(n simnet.NodeID, d Delivery) (any, bool) {
			return "copy", n != missed
		},
		Serve: func(parent simnet.NodeID, d Delivery) (any, bool) { return "served", true },
	})
	got := map[simnet.NodeID]any{}
	tr.OnDeliver(func(n simnet.NodeID, d Delivery) { got[n] = d.Payload })
	var want int64
	for i := 1; i < 30; i++ {
		id := simnet.NodeID(i)
		sz := int64(size)
		if slices.Contains(holders, id) {
			sz = noteSize
		}
		for _, h := range holders {
			for p, _ := tr.Parent(h); p != simnet.None; p, _ = tr.Parent(p) {
				if p == id {
					sz += guid.Size
					break
				}
			}
		}
		want += sz
	}
	tr.Push(Delivery{Payload: "update", Size: size, Holders: holders})
	k.RunFor(10 * time.Second)

	if len(got) != 30 {
		t.Fatalf("delivered to %d/30", len(got))
	}
	if got[missed] != "served" || got[holder] != "copy" || got[0] != "update" {
		t.Fatalf("the missed holder got %v, a holder %v, the root %v", got[missed], got[holder], got[0])
	}
	if b := net.KindBytes(KindUpdate); b != want {
		t.Fatalf("tree pushes cost %d B, want %d", b, want)
	}
	if f, r := net.KindBytes(KindFetch), net.KindBytes(KindFetchReply); f != noteSize || r != size {
		t.Fatalf("the fetch cost %d B and its reply %d B, want %d and %d", f, r, noteSize, size)
	}
}

// TestWrongShapeIgnored: a message of a member kind whose payload is not
// what that kind carries is dropped, for every kind.
func TestWrongShapeIgnored(t *testing.T) {
	k, net, tr := build(t, 6, 2, 10)
	delivered := 0
	tr.OnDeliver(func(simnet.NodeID, Delivery) { delivered++ })
	tr.OnPull(func(simnet.NodeID) (any, int) { t.Fatal("a wrong-shape pull was served"); return nil, 0 })
	for _, kind := range memberKinds {
		var wrong any = pullReq{Tree: tr.id}
		if kind == KindPull {
			wrong = Delivery{Tree: tr.id}
		}
		net.Send(0, 1, kind, wrong, 1)
	}
	k.RunFor(10 * time.Second)
	if delivered != 0 {
		t.Fatalf("%d deliveries from wrong-shape messages", delivered)
	}
}
