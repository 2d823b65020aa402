package core

import (
	"slices"
	"testing"
	"time"

	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

// diameter is the widest plane distance between two of the nodes.
func diameter(net *simnet.Network, nodes []simnet.NodeID) float64 {
	d := 0.0
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			d = max(d, net.Distance(a, b))
		}
	}
	return d
}

// TestPrimaryTiersArePacked: on a 10 000-node pool over a 100-unit
// plane, the median primary tier is at most 5 units wide (2.4 at this
// seed).  Tiers of consecutive node IDs, whose positions are
// independent, have a median width of 80 units here.
func TestPrimaryTiersArePacked(t *testing.T) {
	cfg := DefaultPoolConfig()
	cfg.Nodes = 10000
	cfg.Extent = 100
	cfg.NoMesh = true
	p := NewPool(1, cfg)
	widths := make([]float64, cfg.Nodes/4)
	for i := range widths {
		widths[i] = diameter(p.Net, p.pickPrimaries())
	}
	slices.Sort(widths)
	if median := widths[len(widths)/2]; median > 5 {
		t.Fatalf("median tier diameter %.1f units, want at most 5", median)
	}
}

// TestEarlyTiersAreCentral: the first tiers the pool hands out — the
// pre-created, Zipf-hot objects' — sit nearer the whole network than
// the last ones and than the typical tier: the mean latency from every
// node to the anchors of the first 16 tiers is below the mean to the
// anchors of the last 16, and below the mean to every 16th anchor.
func TestEarlyTiersAreCentral(t *testing.T) {
	cfg := DefaultPoolConfig()
	cfg.Nodes = 10000
	cfg.Extent = 100
	cfg.NoMesh = true
	p := NewPool(1, cfg)
	anchors := make([]simnet.NodeID, cfg.Nodes/4)
	for i := range anchors {
		anchors[i] = p.pickPrimaries()[0]
	}
	mean := func(tiers []simnet.NodeID) time.Duration {
		var sum time.Duration
		for _, a := range tiers {
			for n := range cfg.Nodes {
				sum += p.Net.Latency(simnet.NodeID(n), a)
			}
		}
		return sum / time.Duration(len(tiers)*cfg.Nodes)
	}
	var spread []simnet.NodeID
	for i := 0; i < len(anchors); i += 16 {
		spread = append(spread, anchors[i])
	}
	first, last, all := mean(anchors[:16]), mean(anchors[len(anchors)-16:]), mean(spread)
	if first >= last || first >= all {
		t.Fatalf("mean latency to the first 16 anchors %v, to the last 16 %v, to every 16th %v", first, last, all)
	}
}

// soakWorld256 builds the world `osexp soak 1` runs on.
func soakWorld256(t *testing.T) *SoakWorld {
	t.Helper()
	w, err := NewSoakWorld(1, DefaultSoakConfig(256))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSoakFloatingReplicasLeaveTheTier: every soak object has its
// Secondaries floating replicas, one on its primary anchor and the
// rest on nodes outside its tier.
func TestSoakFloatingReplicasLeaveTheTier(t *testing.T) {
	w := soakWorld256(t)
	for _, obj := range w.Objects() {
		ring, _ := w.Pool.Ring(obj)
		tier := ring.PrimaryNodes()
		if _, ok := ring.Secondary(tier[0]); !ok {
			t.Fatalf("object %s: no floating replica on its anchor %d", obj.Short(), tier[0])
		}
		if got := ring.SecondaryCount(); got != w.cfg.Secondaries {
			t.Fatalf("object %s: %d floating replicas, want %d", obj.Short(), got, w.cfg.Secondaries)
		}
		for _, sec := range ring.Secondaries() {
			if sec.Node != tier[0] && slices.Contains(tier, sec.Node) {
				t.Fatalf("object %s: floating replica on tier member %d (tier %v)", obj.Short(), sec.Node, tier)
			}
		}
	}
}

// TestChurnFollowsThePlacementOrder: churn's first three victims are
// object 0's tier members 1–3, in tier order, and its anchor is spared.
func TestChurnFollowsThePlacementOrder(t *testing.T) {
	w := soakWorld256(t)
	var victims []simnet.NodeID
	w.Pool.Net.SetTrace(func(ev simnet.TraceEvent) {
		if ev.Event == "crash" {
			victims = append(victims, ev.From)
		}
	})
	w.StartChurn(time.Minute, 20*time.Second)
	w.Pool.Run(3*time.Minute + time.Second)
	ring, _ := w.Pool.Ring(w.Objects()[0])
	if want := ring.PrimaryNodes()[1:]; !slices.Equal(victims, want) {
		t.Fatalf("churn bounced %v, want object 0's members 1–3 %v", victims, want)
	}
}

// TestSoakDemotesTheAnchorsReplica: when the coldest floating replica
// is the one on the primary anchor, demotion retires it — the ring,
// the per-node census and the controller's view all lose it together.
// The demotion used to fail after the ring had dropped the replica, so
// the census kept one the ring no longer had.
func TestSoakDemotesTheAnchorsReplica(t *testing.T) {
	w := soakWorld256(t)
	ring, _ := w.Pool.Ring(w.Objects()[0])
	anchor := ring.PrimaryAnchor()
	for _, sec := range ring.Secondaries() {
		if sec.Node != anchor {
			sec.Reads = 1
		}
	}
	hosted, count := w.HostedAt(anchor), ring.SecondaryCount()
	h := soakHost{w}
	if !h.Demote(0) {
		t.Fatal("demoting the anchor's replica failed")
	}
	if _, ok := ring.Secondary(anchor); ok {
		t.Fatal("the anchor's replica is still in the ring")
	}
	if got := w.HostedAt(anchor); got != hosted-1 {
		t.Fatalf("census at the anchor %d, want %d", got, hosted-1)
	}
	if got := h.Replicas(0); got != count-1 {
		t.Fatalf("controller sees %d replicas, want %d", got, count-1)
	}
}

// TestProblemsFindsADivergentSecondary: a secondary holding a commit
// its primary never had is reported, and only that one.
func TestProblemsFindsADivergentSecondary(t *testing.T) {
	w := soakWorld256(t)
	if probs := w.Problems(); len(probs) != 0 {
		t.Fatalf("fresh world: %q", probs)
	}
	obj := w.Objects()[3]
	ring, _ := w.Pool.Ring(obj)
	sec := ring.Secondaries()[0]
	u := update.NewUnconditional(obj, nil)
	u.Seq = 1
	sec.Rep.Commit(u, sec.Rep.CommittedLen(), w.Pool.K.Now())
	if probs := w.Problems(); len(probs) != 1 {
		t.Fatalf("want one problem, got %q", probs)
	}
}
