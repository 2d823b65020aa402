package replica

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/byz"
	"oceanstore/internal/crypt"
	"oceanstore/internal/dtree"
	"oceanstore/internal/epidemic"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

// world sets up a 40-node network: nodes 0..3 are the primary tier,
// node 39 is the client, the rest can become secondaries.
type world struct {
	k      *sim.Kernel
	net    *simnet.Network
	ring   *Ring
	key    crypt.BlockKey
	obj    guid.GUID
	client simnet.NodeID
	seq    uint64
}

func newWorld(t *testing.T, seed int64, cfg Config) *world {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{BaseLatency: 20 * time.Millisecond, LatencyPerUnit: time.Millisecond})
	nodes := net.AddRandomNodes(40, 30, 4)
	arch := archive.NewService(net, nodes[4:36])
	key := crypt.NewBlockKey(rand.New(rand.NewSource(seed)))
	v0 := object.NewObject([]byte("base."), 64, key)
	obj := guid.FromData([]byte("test-object"))
	primaries := []simnet.NodeID{0, 1, 2, 3}
	ring, err := NewRing(net, primaries, v0, obj, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &world{k: k, net: net, ring: ring, key: key, obj: obj, client: 39}
}

// appendUpdate builds an unconditional append against the current
// committed version.
func (w *world) appendUpdate(t *testing.T, payload string) *update.Update {
	t.Helper()
	base := w.ring.CommittedVersion()
	ed, err := object.NewEditor(base, w.key)
	if err != nil {
		t.Fatal(err)
	}
	u := update.NewUnconditional(w.obj, update.BlockOps(ed.Append([]byte(payload))))
	w.seq++
	u.ClientID = guid.FromData([]byte("client"))
	u.Seq = w.seq
	u.Timestamp = w.k.Now()
	return u
}

func (w *world) read(t *testing.T, v *object.Version) string {
	t.Helper()
	b, err := object.NewView(v, w.key).Read()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestFigure5UpdatePath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	w := newWorld(t, 1, cfg)
	// 10 secondaries join the dissemination tree.
	for i := 4; i < 14; i++ {
		if _, err := w.ring.AddSecondary(simnet.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	var res *byz.Result
	u := w.appendUpdate(t, "hello")
	w.ring.Submit(w.client, u, 3, func(r byz.Result) { res = &r })
	w.k.RunFor(30 * time.Second)

	if res == nil || !res.Committed {
		t.Fatal("update did not commit through the primary tier")
	}
	// Authoritative state advanced.
	if got := w.read(t, w.ring.CommittedVersion()); got != "base.hello" {
		t.Fatalf("primary state %q", got)
	}
	// Every secondary received the committed update via the tree.
	for _, sec := range w.ring.Secondaries() {
		if sec.Rep.CommittedLen() != 1 {
			t.Fatalf("secondary %d committed %d", sec.Node, sec.Rep.CommittedLen())
		}
		if got := w.read(t, sec.Rep.CommittedState()); got != "base.hello" {
			t.Fatalf("secondary %d state %q", sec.Node, got)
		}
	}
	// Archival fragments were generated as a side effect of commitment.
	if len(w.ring.ArchiveRoots) != 1 {
		t.Fatalf("archive roots = %d, want 1", len(w.ring.ArchiveRoots))
	}
}

func TestTentativeSpreadBeforeCommit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	cfg.GossipInterval = 2 * time.Second
	w := newWorld(t, 2, cfg)
	for i := 4; i < 12; i++ {
		if _, err := w.ring.AddSecondary(simnet.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	u := w.appendUpdate(t, "x")
	w.ring.Submit(w.client, u, 4, nil)
	// Run only briefly: tentative copies land, commit likely incomplete.
	w.k.RunFor(100 * time.Millisecond)
	tentative := 0
	for _, sec := range w.ring.Secondaries() {
		if sec.Rep.Seen(u.ID()) && sec.Rep.CommittedLen() == 0 {
			tentative++
		}
	}
	if tentative == 0 {
		t.Fatal("no secondary holds the update tentatively")
	}
	// Gossip spreads it to most secondaries well before any commit path.
	w.k.RunFor(20 * time.Second)
	seen := 0
	for _, sec := range w.ring.Secondaries() {
		if sec.Rep.Seen(u.ID()) {
			seen++
		}
	}
	if seen < 6 {
		t.Fatalf("after gossip only %d/8 secondaries saw the update", seen)
	}
}

func TestArchiveSnapshotRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	w := newWorld(t, 3, cfg)
	u := w.appendUpdate(t, "durable")
	w.ring.Submit(w.client, u, 0, nil)
	w.k.RunFor(30 * time.Second)
	if len(w.ring.ArchiveRoots) == 0 {
		t.Fatal("no archive produced")
	}
	// Reconstruct the snapshot from fragments and parse it.
	root := w.ring.ArchiveRoots[0]
	var data []byte
	w.ring.arch.Retrieve(38, root, 2, 10*time.Second, func(d []byte, err error, _ time.Duration) {
		if err != nil {
			t.Errorf("retrieve: %v", err)
			return
		}
		data = d
	})
	w.k.RunFor(30 * time.Second)
	if data == nil {
		t.Fatal("retrieval incomplete")
	}
	v, err := ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.read(t, v); got != "base.durable" {
		t.Fatalf("archived state %q", got)
	}
	if v.Num != 1 {
		t.Fatalf("archived version num %d", v.Num)
	}
}

func TestLowBandwidthInvalidationAndRefresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	// Disable gossip so the dissemination tree is the only data channel;
	// otherwise anti-entropy (correctly) delivers the data anyway.
	cfg.GossipInterval = 0
	w := newWorld(t, 4, cfg)
	// One normal secondary, then a low-bandwidth one attached below.
	if _, err := w.ring.AddSecondary(simnet.NodeID(4)); err != nil {
		t.Fatal(err)
	}
	w.net.Node(5).SetLowBandwidth(true)
	sec, err := w.ring.AddSecondary(simnet.NodeID(5))
	if err != nil {
		t.Fatal(err)
	}
	u := w.appendUpdate(t, "bulk")
	w.ring.Submit(w.client, u, 0, nil)
	w.k.RunFor(30 * time.Second)
	if !sec.Stale {
		t.Fatal("low-bandwidth secondary not invalidated")
	}
	if sec.Rep.CommittedLen() != 0 {
		t.Fatal("invalidated secondary received data anyway")
	}
	// Refresh pulls the committed log from the parent.
	done := false
	if err := w.ring.Refresh(5, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	w.k.RunFor(10 * time.Second)
	if !done || sec.Stale {
		t.Fatal("refresh did not complete")
	}
	if got := w.read(t, sec.Rep.CommittedState()); got != "base.bulk" {
		t.Fatalf("refreshed state %q", got)
	}
}

// TestRefreshPastTheWindowChargesTheBase: a stale secondary whose
// parent's log window no longer reaches position 0 catches up from the
// pulled checkpoint by adopting its base state, so the pull reply is
// charged the base version's stored bytes on top of the window — not a
// placeholder for the base — and the window at what travels: whole
// updates for the parent's last epidemic.Reach positions, an ID and
// outcome for each older entry.
func TestRefreshPastTheWindowChargesTheBase(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArchiveEvery = 1 << 20
	cfg.GossipInterval = 0
	w := newWorld(t, 13, cfg)
	if _, err := w.ring.AddSecondary(simnet.NodeID(4)); err != nil {
		t.Fatal(err)
	}
	w.net.Node(5).SetLowBandwidth(true)
	sec, err := w.ring.AddSecondary(simnet.NodeID(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*epidemic.Window; i++ {
		w.ring.Submit(w.client, w.appendUpdate(t, "x"), 0, nil)
		w.k.RunFor(time.Second)
	}
	parent, err := w.ring.Tree().Parent(5)
	if err != nil {
		t.Fatal(err)
	}
	src := w.ring.PrimaryState()
	if p, ok := w.ring.Secondary(parent); ok {
		src = p.Rep
	}
	c := src.Checkpoint()
	if c.Start == 0 || sec.Rep.CommittedLen() != 0 {
		t.Fatalf("setup: parent's window starts at %d, stale secondary at %d", c.Start, sec.Rep.CommittedLen())
	}
	// The parent holds the updates of its last epidemic.Reach positions;
	// the window's older entries travel as ID and outcome.
	want := int64(64 + c.Base.BytesStored() + (len(c.Window)-epidemic.Reach)*update.EntryWireSize)
	for pos := c.Len() - epidemic.Reach; pos < c.Len(); pos++ {
		want += int64(c.Update(pos).WireSize())
	}
	before := w.net.Stats().ByKind[dtree.KindPullReply]
	if err := w.ring.Refresh(5, nil); err != nil {
		t.Fatal(err)
	}
	w.k.RunFor(10 * time.Second)
	if got := w.net.Stats().ByKind[dtree.KindPullReply] - before; got != want {
		t.Fatalf("pull reply charged %d bytes, want %d (base %d bytes)", got, want, c.Base.BytesStored())
	}
	if sec.Stale || sec.Rep.CommittedLen() != c.Len() || !sec.Rep.PrefixOf(w.ring.PrimaryState()) {
		t.Fatalf("refreshed secondary at length %d, want %d", sec.Rep.CommittedLen(), c.Len())
	}
	if got, want := w.read(t, sec.Rep.CommittedState()), w.read(t, c.Base); got != want {
		t.Fatalf("refreshed state %q, parent's %q", got, want)
	}
}

// TestJoinDuringPushAppliesOnce: a secondary that joins after the
// primary executed an update but before that update's tree push starts
// from a checkpoint that already covers it.  The push must arrive as a
// duplicate: a second application would run the secondary's log one
// position ahead of the primary's.
func TestJoinDuringPushAppliesOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	w := newWorld(t, 11, cfg)
	if _, err := w.ring.AddSecondary(simnet.NodeID(4)); err != nil {
		t.Fatal(err)
	}
	var joined *Secondary
	w.ring.OnCommit(func(*update.Update, update.Outcome) {
		if joined == nil {
			var err error
			if joined, err = w.ring.AddSecondary(simnet.NodeID(5)); err != nil {
				t.Error(err)
			}
		}
	})
	w.ring.Submit(w.client, w.appendUpdate(t, "once"), 0, nil)
	w.k.RunFor(30 * time.Second)
	if joined == nil {
		t.Fatal("the update never committed")
	}
	if got, want := joined.Rep.CommittedLen(), w.ring.PrimaryState().CommittedLen(); got != want {
		t.Fatalf("joined secondary at log position %d, primary at %d", got, want)
	}
	if got := w.read(t, joined.Rep.CommittedState()); got != "base.once" {
		t.Fatalf("joined secondary state %q", got)
	}
}

func TestWriterRestrictionGate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	w := newWorld(t, 5, cfg)
	w.ring.CheckWrite = func(u *update.Update) error {
		return errExpected // reject everything
	}
	u := w.appendUpdate(t, "evil")
	w.ring.Submit(w.client, u, 0, nil)
	w.k.RunFor(30 * time.Second)
	if got := w.read(t, w.ring.CommittedVersion()); got != "base." {
		t.Fatalf("unauthorized write applied: %q", got)
	}
	if w.ring.PrimaryState().Log.Len() != 0 {
		t.Fatal("unauthorized write logged as applied")
	}
}

var errExpected = errTest{}

type errTest struct{}

func (errTest) Error() string { return "unauthorized" }

func TestSequentialUpdatesSerialize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArchiveEvery = 100 // skip archiving in this test
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	w := newWorld(t, 6, cfg)
	if _, err := w.ring.AddSecondary(simnet.NodeID(7)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		u := w.appendUpdate(t, string(rune('a'+i)))
		w.ring.Submit(w.client, u, 0, nil)
		w.k.RunFor(10 * time.Second) // commit before building the next
	}
	if got := w.read(t, w.ring.CommittedVersion()); got != "base.abc" {
		t.Fatalf("final state %q", got)
	}
	sec, _ := w.ring.Secondary(7)
	if got := w.read(t, sec.Rep.CommittedState()); got != "base.abc" {
		t.Fatalf("secondary state %q", got)
	}
	// OnCommit callbacks fired in order.
}

func TestOnCommitCallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	w := newWorld(t, 7, cfg)
	var got []update.Outcome
	w.ring.OnCommit(func(u *update.Update, out update.Outcome) { got = append(got, out) })
	u := w.appendUpdate(t, "cb")
	w.ring.Submit(w.client, u, 0, nil)
	w.k.RunFor(30 * time.Second)
	if len(got) != 1 || !got[0].Committed {
		t.Fatalf("callbacks = %+v", got)
	}
}

// TestRemoveSecondaryOnTheRoot: a floating replica on the
// dissemination tree's root — the primary anchor — retires like any
// other, and the root stays in the tree, still pushing commits to the
// members below it.  The ring used to drop the replica and then report
// the tree's refusal to let its root leave, so callers counted a
// replica the ring no longer had.
func TestRemoveSecondaryOnTheRoot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	w := newWorld(t, 8, cfg)
	root := w.ring.Tree().Root()
	for _, n := range []simnet.NodeID{root, 4} {
		if _, err := w.ring.AddSecondary(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.ring.RemoveSecondary(root); err != nil {
		t.Fatalf("retiring the root's replica: %v", err)
	}
	if _, ok := w.ring.Secondary(root); ok || w.ring.SecondaryCount() != 1 {
		t.Fatalf("root replica still present, or count %d (want 1)", w.ring.SecondaryCount())
	}
	if got := w.ring.Tree().Root(); got != root {
		t.Fatalf("tree root moved to %d", got)
	}
	if !w.ring.IsPrimary(root) || w.ring.IsPrimary(4) {
		t.Fatalf("IsPrimary: root %d %v, secondary 4 %v; want the root a tier member and 4 not",
			root, w.ring.IsPrimary(root), w.ring.IsPrimary(4))
	}
	w.ring.Submit(w.client, w.appendUpdate(t, "x"), 0, nil)
	w.k.RunFor(10 * time.Second)
	sec, _ := w.ring.Secondary(4)
	if got, want := sec.Rep.CommittedLen(), w.ring.PrimaryState().CommittedLen(); got != want || want != 1 {
		t.Fatalf("member below the root at length %d, primary at %d (want 1)", got, want)
	}
}

func TestRemoveSecondary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	w := newWorld(t, 8, cfg)
	if _, err := w.ring.AddSecondary(simnet.NodeID(4)); err != nil {
		t.Fatal(err)
	}
	if err := w.ring.RemoveSecondary(4); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.ring.Secondary(4); ok {
		t.Fatal("secondary still present")
	}
	if err := w.ring.RemoveSecondary(4); err == nil {
		t.Fatal("double remove accepted")
	}
	if _, err := w.ring.AddSecondary(simnet.NodeID(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ring.AddSecondary(simnet.NodeID(5)); err == nil {
		t.Fatal("duplicate add accepted")
	}
}

// TestRemovedSecondaryKeepsItsCounts: a secondary counts into its
// hosting node's slot in the tally, not on the replica, so retiring it
// leaves the node's epidemic counts in the registry with their values, and
// a secondary that rejoins on that node adds to them.
func TestRemovedSecondaryKeepsItsCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	w := newWorld(t, 8, cfg)
	reg := obs.NewRegistry()
	w.ring.Instrument(reg, nil, epidemic.NewTally(reg))
	commit := func(payload string) {
		t.Helper()
		committed := false
		w.ring.Submit(w.client, w.appendUpdate(t, payload), 0, func(r byz.Result) { committed = r.Committed })
		w.k.RunFor(30 * time.Second)
		if !committed {
			t.Fatalf("%q did not commit", payload)
		}
	}
	node4 := func() map[string]int64 {
		counts := map[string]int64{}
		for _, name := range []string{"tentative", "commits", "aborts", "dup_commits", "replays", "expired", "checkpoints"} {
			counts[name] = reg.CounterValue(4, "epidemic", name)
		}
		return counts
	}
	if _, err := w.ring.AddSecondary(4); err != nil {
		t.Fatal(err)
	}
	commit("a")
	before := node4()
	if len(before) != 7 || before["commits"] != 1 {
		t.Fatalf("node 4 dumps %v, want seven series with one commit", before)
	}
	if err := w.ring.RemoveSecondary(4); err != nil {
		t.Fatal(err)
	}
	if got := node4(); !maps.Equal(got, before) {
		t.Fatalf("after removal node 4 dumps %v, want %v", got, before)
	}
	if _, err := w.ring.AddSecondary(4); err != nil {
		t.Fatal(err)
	}
	commit("b")
	if got := node4()["commits"]; got != before["commits"]+1 {
		t.Fatalf("the rejoined secondary left node 4 at %d commits, want %d", got, before["commits"]+1)
	}
}

func TestSnapshotParseRejectsGarbage(t *testing.T) {
	if _, err := ParseSnapshot(nil); err == nil {
		t.Fatal("nil snapshot parsed")
	}
	if _, err := ParseSnapshot(make([]byte, 10)); err == nil {
		t.Fatal("short snapshot parsed")
	}
	// Huge top count.
	bad := make([]byte, 24)
	bad[23] = 0xff
	bad[16] = 0xff
	if _, err := ParseSnapshot(bad); err == nil {
		t.Fatal("corrupt top count parsed")
	}
}

func TestTwoRingsShareNodes(t *testing.T) {
	// Two objects with primary tiers on the SAME physical nodes must not
	// interfere (message tagging).
	k := sim.NewKernel(9)
	net := simnet.New(k, simnet.Config{BaseLatency: 20 * time.Millisecond})
	nodes := net.AddRandomNodes(20, 30, 2)
	arch := archive.NewService(net, nodes[8:18])
	key := crypt.NewBlockKey(rand.New(rand.NewSource(9)))
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}

	mk := func(name, base string) (*Ring, guid.GUID) {
		obj := guid.FromData([]byte(name))
		v0 := object.NewObject([]byte(base), 64, key)
		r, err := NewRing(net, []simnet.NodeID{0, 1, 2, 3}, v0, obj, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, obj
	}
	ringA, objA := mk("objA", "A:")
	ringB, objB := mk("objB", "B:")

	mkUpdate := func(ring *Ring, obj guid.GUID, payload string, seq uint64) *update.Update {
		ed, err := object.NewEditor(ring.CommittedVersion(), key)
		if err != nil {
			t.Fatal(err)
		}
		u := update.NewUnconditional(obj, update.BlockOps(ed.Append([]byte(payload))))
		u.ClientID = guid.FromData([]byte("c"))
		u.Seq = seq
		return u
	}
	ringA.Submit(19, mkUpdate(ringA, objA, "one", 1), 0, nil)
	ringB.Submit(19, mkUpdate(ringB, objB, "two", 1), 0, nil)
	k.RunFor(30 * time.Second)

	readV := func(r *Ring) string {
		b, err := object.NewView(r.CommittedVersion(), key).Read()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got := readV(ringA); got != "A:one" {
		t.Fatalf("ring A state %q", got)
	}
	if got := readV(ringB); got != "B:two" {
		t.Fatalf("ring B state %q", got)
	}
}

// TestOneRegistrationPerMember: a ring's primary tier registers each
// member once, under the object's tag, and nothing under the zero key;
// a second ring on the same nodes adds one registration each under its
// own tag.
func TestOneRegistrationPerMember(t *testing.T) {
	w := newWorld(t, 13, DefaultConfig())
	other := guid.FromData([]byte("other-object"))
	v0 := object.NewObject([]byte("other."), 64, w.key)
	if _, err := NewRing(w.net, w.ring.PrimaryNodes(), v0, other, nil, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for _, n := range w.ring.PrimaryNodes() {
		node := w.net.Node(n)
		for key, want := range map[simnet.DemuxKey]int{
			simnet.DemuxKey(w.obj): 1, simnet.DemuxKey(other): 1, {}: 0,
		} {
			if got := node.Handlers(key); got != want {
				t.Errorf("node %d holds %d registrations under %x, want %d", n, got, key[:4], want)
			}
		}
	}
}

func TestRingCommitCertificate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	w := newWorld(t, 10, cfg)
	u := w.appendUpdate(t, "provable")
	var res *byz.Result
	w.ring.Submit(w.client, u, 0, func(r byz.Result) { res = &r })
	w.k.RunFor(30 * time.Second)
	if res == nil || res.Certificate == nil {
		t.Fatal("no certificate through the ring")
	}
	// Offline verification with only the tier's public keys.
	keys := w.ring.Group().PublicKeys()
	f := (len(keys) - 1) / 3
	if !res.Certificate.Verify(keys, f) {
		t.Fatal("ring certificate failed offline verification")
	}
	forged := *res.Certificate
	forged.Seq++
	if forged.Verify(keys, f) {
		t.Fatal("forged certificate verified")
	}
}

// TestMissedPushLeavesAPrefix: a secondary is down for one commit's
// push and back before the next one.  The next push names a position
// past its log end, so it is not applied on top of the gap: the log
// stays a prefix of the primary's at every step, and anti-entropy then
// brings it to the primary's length and committed state.  Applied at
// the end of the log, the push ran it to "base.ac" where the primary
// held "base.abc", and anti-entropy, replaying from the shorter log's
// length, met a duplicate there and never repaired it.
func TestMissedPushLeavesAPrefix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArchiveEvery = 100
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	w := newWorld(t, 12, cfg)
	const victim = 7
	for _, n := range []simnet.NodeID{4, victim} {
		if _, err := w.ring.AddSecondary(n); err != nil {
			t.Fatal(err)
		}
	}
	sec, _ := w.ring.Secondary(victim)
	primary := w.ring.PrimaryState()
	step := func(d time.Duration) {
		t.Helper()
		for end := w.k.Now() + d; w.k.Now() < end; {
			w.k.RunFor(100 * time.Millisecond)
			if !sec.Rep.PrefixOf(primary) {
				t.Fatalf("at %v the secondary's log (length %d, %q) is not a prefix of the primary's (length %d)",
					w.k.Now(), sec.Rep.CommittedLen(), w.read(t, sec.Rep.CommittedState()), primary.CommittedLen())
			}
		}
	}
	w.ring.Submit(w.client, w.appendUpdate(t, "a"), 0, nil)
	step(10 * time.Second)
	w.net.Crash(victim)
	w.ring.Submit(w.client, w.appendUpdate(t, "b"), 0, nil)
	step(5 * time.Second)
	w.net.Recover(victim)
	w.ring.Submit(w.client, w.appendUpdate(t, "c"), 0, nil)
	step(3 * time.Hour)
	if got, want := sec.Rep.CommittedLen(), primary.CommittedLen(); got != want || want != 3 {
		t.Fatalf("secondary at length %d, primary at %d (want 3)", got, want)
	}
	if got := w.read(t, sec.Rep.CommittedState()); got != "base.abc" {
		t.Fatalf("secondary state %q", got)
	}
}

// TestPrefixProblemsNamesTheDivergedSecondary: one secondary of a small
// ring commits a foreign update at its next position.  PrefixProblems
// names that secondary alone — first while its log runs past the
// primary's, then once the primary commits a different update at the
// same position.  (Gossip is held off, or the diverged log, being the
// longer, would be copied to its peers.)
func TestPrefixProblemsNamesTheDivergedSecondary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArchiveEvery = 100
	cfg.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	cfg.GossipInterval = 24 * time.Hour
	w := newWorld(t, 13, cfg)
	const victim = 9
	for _, n := range []simnet.NodeID{5, victim, 11} {
		if _, err := w.ring.AddSecondary(n); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(payload string) {
		t.Helper()
		w.ring.Submit(w.client, w.appendUpdate(t, payload), 0, nil)
		w.k.RunFor(10 * time.Second)
		for _, sec := range w.ring.Secondaries() {
			if sec.Node != victim && sec.Rep.CommittedLen() != w.ring.PrimaryState().CommittedLen() {
				t.Fatalf("setup: secondary %d at length %d", sec.Node, sec.Rep.CommittedLen())
			}
		}
	}
	commit("a")
	if p := w.ring.PrefixProblems(); len(p) != 0 {
		t.Fatalf("a ring in step reports %q", p)
	}
	sec, _ := w.ring.Secondary(victim)
	rogue := w.appendUpdate(t, "z")
	rogue.ClientID = guid.FromData([]byte("rogue"))
	if out := sec.Rep.Commit(rogue, sec.Rep.CommittedLen(), w.k.Now()); !out.Committed {
		t.Fatal("setup: the foreign update aborted")
	}
	check := func(primaryLen int) {
		t.Helper()
		want := fmt.Sprintf("object %s: the secondary on node %d holds 2 commits that are not a prefix of the primary's %d", w.obj.Short(), victim, primaryLen)
		if p := w.ring.PrefixProblems(); len(p) != 1 || p[0] != want {
			t.Fatalf("PrefixProblems = %q, want [%q]", p, want)
		}
	}
	check(1)
	commit("b")
	if sec.Rep.CommittedLen() != w.ring.PrimaryState().CommittedLen() {
		t.Fatalf("setup: the diverged secondary at length %d, the primary at %d", sec.Rep.CommittedLen(), w.ring.PrimaryState().CommittedLen())
	}
	check(2)
}
