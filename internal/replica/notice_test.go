package replica

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/crypt"
	"oceanstore/internal/dtree"
	"oceanstore/internal/epidemic"
	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/simnet"
)

// sendLog is a fault plan that drops the messages drop names and
// records every send: the destinations of each kind, in send order.
type sendLog struct {
	drop func(simnet.Message) bool
	to   map[string][]simnet.NodeID
}

func (l *sendLog) FilterSend(m simnet.Message, _ time.Duration) (bool, time.Duration) {
	if l.to == nil {
		l.to = map[string][]simnet.NodeID{}
	}
	l.to[m.Kind] = append(l.to[m.Kind], m.To)
	return l.drop != nil && l.drop(m), 0
}

// noticeWorld is a ring with secondaries on nodes, instrumented so its
// notice misses can be read, and a send log installed.
func noticeWorld(t *testing.T, seed int64, nodes []simnet.NodeID) (*world, *obs.Registry, *sendLog) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	cfg.GossipInterval = 24 * time.Hour // commits arrive by the tree alone
	w := newWorld(t, seed, cfg)
	for _, n := range nodes {
		if _, err := w.ring.AddSecondary(n); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	w.ring.Instrument(reg, nil, epidemic.NewTally(reg))
	log := &sendLog{}
	w.net.SetFaultPlan(log)
	return w, reg, log
}

func misses(reg *obs.Registry) int64 {
	return reg.CounterValue(obs.NodeWide, "replica", "notice_misses")
}

// TestLostCopyFetchesFromTheParent: a holder whose tentative copy was
// lost gets only a notice, fetches the update from its parent, commits
// it at the notice's position, and still relays it to its children.
func TestLostCopyFetchesFromTheParent(t *testing.T) {
	var nodes []simnet.NodeID
	for i := 4; i < 16; i++ {
		nodes = append(nodes, simnet.NodeID(i))
	}
	w, reg, log := noticeWorld(t, 21, nodes)
	// The victim is a secondary with children: twelve members under a
	// fanout-4 root make some interior.
	victim, children := simnet.None, []simnet.NodeID(nil)
	for _, n := range nodes {
		var cs []simnet.NodeID
		for _, c := range nodes {
			if p, _ := w.ring.Tree().Parent(c); p == n {
				cs = append(cs, c)
			}
		}
		if len(cs) > 0 {
			victim, children = n, cs
			break
		}
	}
	if victim == simnet.None {
		t.Fatal("setup: no secondary has children")
	}
	log.drop = func(m simnet.Message) bool { return m.Kind == kindTentative && m.To == victim }
	w.ring.Submit(w.client, w.appendUpdate(t, "a"), len(nodes), nil)
	w.ring.Submit(w.client, w.appendUpdate(t, "b"), len(nodes), nil)
	w.k.RunFor(30 * time.Second)

	if got := misses(reg); got != 2 {
		t.Fatalf("notice misses = %d, want 2 (one per write, at the victim)", got)
	}
	if got := len(log.to[dtree.KindFetch]); got != 2 {
		t.Fatalf("%d fetches, want 2", got)
	}
	primary := w.ring.PrimaryState()
	for _, n := range append([]simnet.NodeID{victim}, children...) {
		sec, _ := w.ring.Secondary(n)
		if sec.Rep.CommittedLen() != 2 || !sec.Rep.PrefixOf(primary) {
			t.Fatalf("node %d committed %d updates (prefix %v), want the primary's 2",
				n, sec.Rep.CommittedLen(), sec.Rep.PrefixOf(primary))
		}
		if got := w.read(t, sec.Rep.CommittedState()); got != "base.ab" {
			t.Fatalf("node %d reads %q", n, got)
		}
	}
}

// TestEquivocatingClientEndsOnThePrimarysVersion: a client signs two
// contents under one (client, seq), sends one to the tier and the
// other to every secondary.  Each secondary's copy misses the notice's
// digest, so each fetches the committed content and ends on the
// primary's version — the same version GUID, not just the same IDs.
func TestEquivocatingClientEndsOnThePrimarysVersion(t *testing.T) {
	nodes := []simnet.NodeID{4, 5, 6, 7}
	w, reg, _ := noticeWorld(t, 22, nodes)
	signer := crypt.NewSigner(rand.New(rand.NewSource(22)))
	honest := w.appendUpdate(t, "honest")
	honest.Sign(signer)
	w.seq--
	forged := w.appendUpdate(t, "forged")
	forged.Sign(signer)
	if honest.ID() != forged.ID() || honest.Digest() == forged.Digest() {
		t.Fatal("setup: want one ID under two contents")
	}
	for _, n := range nodes {
		w.ring.HandleTentative(n, forged)
	}
	w.ring.Submit(w.client, honest, len(nodes), nil)
	w.k.RunFor(30 * time.Second)

	want := w.ring.CommittedVersion().GUID()
	if w.read(t, w.ring.CommittedVersion()) != "base.honest" {
		t.Fatal("the tier did not commit the honest content")
	}
	for _, sec := range w.ring.Secondaries() {
		if got := sec.Rep.CommittedState().GUID(); got != want {
			t.Fatalf("node %d ends on version %s (%q), the primary on %s",
				sec.Node, got.Short(), w.read(t, sec.Rep.CommittedState()), want.Short())
		}
		if ids := sec.Rep.TentativeIDs(nil); len(ids) != 0 {
			t.Fatalf("node %d still holds %d tentative updates", sec.Node, len(ids))
		}
	}
	if got := misses(reg); got != int64(len(nodes)) {
		t.Fatalf("notice misses = %d, want %d", got, len(nodes))
	}
}

// TestNoticeAndRiderBytes pins the bytes one write with spread 2 puts
// on the tentative path and the tree.  The ring has four secondaries,
// one on the root's own node — the tier's primary, which the request's
// payload reaches — and three one hop below it, so no message names a
// holder below its receiver.  At the first seed whose copies go to the
// root's node and to one child, the rider costs its object ID, the
// notice to that child noticeSize, and the two other children the whole
// update.
func TestNoticeAndRiderBytes(t *testing.T) {
	for seed := int64(1); seed < 64; seed++ {
		w, reg, log := noticeWorld(t, seed, []simnet.NodeID{0, 4, 5, 6})
		if p := w.ring.Group().Primary(); p != 0 || w.ring.Tree().Root() != 0 {
			t.Fatalf("setup: primary %d, root %d", p, w.ring.Tree().Root())
		}
		u := w.appendUpdate(t, "x")
		w.ring.Submit(w.client, u, 2, nil)
		w.k.RunFor(30 * time.Second)
		flat := true
		for _, n := range []simnet.NodeID{4, 5, 6} {
			flat = flat && w.ring.Tree().Depth(n) == 1
		}
		if !flat || !slices.Contains(log.to[kindTentative], 0) {
			continue
		}
		size := int64(u.WireSize())
		if got, want := w.net.KindBytes(kindTentative), int64(guid.Size)+size; got != want {
			t.Fatalf("seed %d: tentative copies to %v cost %d B, want %d", seed, log.to[kindTentative], got, want)
		}
		if got, want := w.net.KindBytes(dtree.KindUpdate), int64(noticeSize)+2*size; got != want {
			t.Fatalf("seed %d: tree pushes to %v cost %d B, want %d", seed, log.to[dtree.KindUpdate], got, want)
		}
		if noticeSize != 61 {
			t.Fatalf("noticeSize = %d, want 61", noticeSize)
		}
		if got := misses(reg); got != 0 {
			t.Fatalf("seed %d: %d notice misses", seed, got)
		}
		return
	}
	t.Fatal("no seed built a flat tree and sent a copy to the primary's node")
}

// TestLateCommitGoesWhole: a holder drops its copy TentativeExpire after
// the update's timestamp, so a commit later than that is pushed whole
// to every secondary — no notice, no miss, no fetch — even where the
// copies never arrived.
func TestLateCommitGoesWhole(t *testing.T) {
	nodes := []simnet.NodeID{4, 5, 6, 7}
	w, reg, log := noticeWorld(t, 23, nodes)
	log.drop = func(m simnet.Message) bool { return m.Kind == kindTentative }
	w.k.RunFor(epidemic.TentativeExpire + time.Minute)
	u := w.appendUpdate(t, "late")
	u.Timestamp = w.k.Now() - epidemic.TentativeExpire - time.Second
	w.ring.Submit(w.client, u, len(nodes), nil)
	w.k.RunFor(30 * time.Second)

	if got := misses(reg); got != 0 || len(log.to[dtree.KindFetch]) != 0 {
		t.Fatalf("%d notice misses and %d fetches, want none", got, len(log.to[dtree.KindFetch]))
	}
	if got, want := w.net.KindBytes(dtree.KindUpdate), int64(len(log.to[dtree.KindUpdate])*u.WireSize()); got != want || want == 0 {
		t.Fatalf("tree pushes cost %d B, want %d (every one whole)", got, want)
	}
	for _, sec := range w.ring.Secondaries() {
		if got := w.read(t, sec.Rep.CommittedState()); got != "base.late" {
			t.Fatalf("node %d reads %q", sec.Node, got)
		}
	}
}
