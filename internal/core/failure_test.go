package core

import (
	"reflect"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/byz"
	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

func TestPartitionBlocksCommitHealResumes(t *testing.T) {
	p := smallPool(30)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("part", []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(ACID)

	// Partition 3 of the 4 primaries away from everyone: no 2f+1 quorum
	// can form on the client's side of the cut.
	ring, _ := p.Ring(obj)
	for _, n := range ring.PrimaryNodes()[1:] {
		p.Net.SetPartition(n, 1)
	}
	committed := false
	sess.OnCommit(func(guid.GUID, update.UpdateID) { committed = true })
	if _, err := sess.Append(obj, []byte("x")); err != nil {
		t.Fatal(err)
	}
	p.Run(time.Minute)
	if committed {
		t.Fatal("committed across a partition that prevents quorum")
	}
	got, _ := sess.Read(obj)
	if string(got) != "" {
		t.Fatalf("partial state visible: %q", got)
	}

	// Heal: client retransmission re-sends the request and the tier
	// commits.
	p.Net.ClearPartitions()
	p.Run(2 * time.Minute)
	if !committed {
		t.Fatal("healed partition did not recover liveness")
	}
	got, _ = sess.Read(obj)
	if string(got) != "x" {
		t.Fatalf("after heal: %q", got)
	}
}

// TestTimedOutWriteLeavesNothing: a write stalled behind a partition
// aborts once at its deadline, and nothing keeps waiting for it.  After
// the heal no commit follows, and the session, the ring's waiters and
// the byz client (which Cancel released) hold nothing for the write.
func TestTimedOutWriteLeavesNothing(t *testing.T) {
	p := smallPool(36)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("deadline", []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(ACID)
	sess.UpdateTimeout = 30 * time.Second
	commits, aborts := 0, 0
	ring, _ := p.Ring(obj)
	for _, n := range ring.PrimaryNodes()[1:] {
		p.Net.SetPartition(n, 1)
	}
	ed, _, err := sess.Editor(obj)
	if err != nil {
		t.Fatal(err)
	}
	late := update.NewUnconditional(obj, update.BlockOps(ed.Append([]byte("late"))))
	sess.submit(&write{u: late, done: func(ok bool) {
		if ok {
			commits++
		} else {
			aborts++
		}
	}})
	p.Run(time.Minute)
	if aborts != 1 || commits != 0 {
		t.Fatalf("at the deadline: %d aborts and %d commits, want 1 and 0", aborts, commits)
	}
	p.Net.ClearPartitions()
	p.Run(3 * time.Minute)
	if aborts != 1 || commits != 0 {
		t.Fatalf("after the heal: %d aborts and %d commits, want 1 and 0", aborts, commits)
	}
	// The byz client's per-request records are a field too; the client
	// keeps state at the tier only while a request is outstanding.
	requests := 0
	if cs := reflect.ValueOf(ring.Group()).Elem().FieldByName("clients").MapIndex(reflect.ValueOf(alice.Node)); cs.IsValid() {
		requests = max(1, cs.Elem().FieldByName("pending").Len())
	}
	if len(sess.objs) != 0 || waiting(ring) != 0 || requests != 0 {
		t.Fatalf("after the timeout the session tracks %d objects, the ring holds %d waiters, the byz client %d requests",
			len(sess.objs), waiting(ring), requests)
	}
}

func TestMonotonicWritesChainInOrder(t *testing.T) {
	p := smallPool(31)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("mw", []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(MonotonicWrites | ReadCommitted)
	// Issue three writes back-to-back without advancing time: only the
	// first may be in flight; the rest are queued client-side.
	for _, s := range []string{"a", "b", "c"} {
		if _, err := sess.Append(obj, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	ring, _ := p.Ring(obj)
	if got := ring.PrimaryState().Log.Len(); got != 0 {
		t.Fatalf("log already has %d entries before any time passed", got)
	}
	p.Run(2 * time.Minute)
	got, _ := sess.Read(obj)
	if string(got) != "abc" {
		t.Fatalf("MonotonicWrites order: %q, want abc", got)
	}
	// All three committed; nothing left queued.
	if n, _ := ring.PrimaryState().Log.Counts(); n != 3 {
		t.Fatalf("commits = %d", n)
	}
}

func TestMonotonicWritesReleasesAfterAbort(t *testing.T) {
	p := smallPool(32)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("mwa", []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(MonotonicWrites | ReadCommitted)
	// First write is doomed (stale guard); second must still go through
	// once the first aborts.
	ed, _, err := sess.Editor(obj)
	if err != nil {
		t.Fatal(err)
	}
	doomed := update.NewVersionGuarded(obj, 999, update.BlockOps(ed.Append([]byte("x"))))
	sess.Submit(doomed)
	if _, err := sess.Append(obj, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	p.Run(2 * time.Minute)
	got, _ := sess.Read(obj)
	if string(got) != "ok" {
		t.Fatalf("queued write after abort: %q", got)
	}
}

func TestSecondaryChurnDuringUpdates(t *testing.T) {
	cfg := DefaultPoolConfig()
	cfg.Nodes = 32
	cfg.BlockSize = 64
	cfg.Ring.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	cfg.Ring.GossipInterval = 2 * time.Second
	p := NewPool(33, cfg)
	alice := p.NewClient(30, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("churn", []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 16; i++ {
		if err := p.AddReplica(obj, simnet.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	sess := alice.NewSession(ACID)
	ring, _ := p.Ring(obj)

	// Interleave updates with secondary crashes and tree repair.
	for i := 0; i < 4; i++ {
		if _, err := sess.Append(obj, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		p.Run(20 * time.Second)
		// Crash one secondary each round; repair the tree.
		victim := simnet.NodeID(4 + i)
		p.Net.Crash(victim)
		ring.Tree().Repair()
		p.Run(20 * time.Second)
	}
	want := "abcd"
	if got, _ := sess.Read(obj); string(got) != want {
		t.Fatalf("primary state %q", got)
	}
	// Every surviving secondary converged despite churn (gossip plus the
	// repaired tree).
	p.Run(2 * time.Minute)
	for _, sec := range ring.Secondaries() {
		if p.Net.Node(sec.Node).Down() {
			continue
		}
		key, _ := alice.Keys.Key(obj)
		v := sec.Rep.CommittedState()
		data, err := readPlain(v, key)
		if err != nil || string(data) != want {
			t.Fatalf("secondary %d state %q err %v", sec.Node, data, err)
		}
	}
}

func TestByzantineSecondaryCannotCorruptCommit(t *testing.T) {
	// A lying primary-tier replica plus an honest majority: the object
	// state at honest replicas matches what the client wrote.
	p := smallPool(34)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("lying", []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := p.Ring(obj)
	ring.Group().SetFault(2, byz.Lying)
	sess := alice.NewSession(ACID)
	if _, err := sess.Append(obj, []byte("truth")); err != nil {
		t.Fatal(err)
	}
	p.Run(time.Minute)
	got, _ := sess.Read(obj)
	if string(got) != "truth" {
		t.Fatalf("state with lying replica: %q", got)
	}
}

func TestDropLossyPoolStillCommits(t *testing.T) {
	cfg := DefaultPoolConfig()
	cfg.Nodes = 24
	cfg.BlockSize = 64
	cfg.Ring.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	cfg.DropProb = 0.05 // 5% message loss everywhere
	p := NewPool(35, cfg)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("lossy", []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(ACID)
	committed := 0
	sess.OnCommit(func(guid.GUID, update.UpdateID) { committed++ })
	for i := 0; i < 3; i++ {
		if _, err := sess.Append(obj, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		p.Run(2 * time.Minute) // retransmissions recover lost messages
	}
	if committed != 3 {
		t.Fatalf("committed %d/3 under 5%% loss", committed)
	}
	got, _ := sess.Read(obj)
	if string(got) != "abc" {
		t.Fatalf("state %q", got)
	}
}

// TestMaintenanceRepairsArchives: the archival scheduler over a
// pool's service is the unattended repair duty — a commit-time archive
// that loses fragments to disk failure is rebuilt with nobody calling
// repair by hand.
func TestMaintenanceRepairsArchives(t *testing.T) {
	p := smallPool(51)
	sched := archive.NewScheduler(p.Arch, archive.SchedulerConfig{
		Threshold: 6,
	})
	defer sched.Start()()
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("arch", []byte("durable data"))
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := p.Ring(obj)
	root := ring.ArchiveRoots[0]
	// Destroy fragments directly (disk loss) until below threshold.
	removed := 0
	for _, nid := range p.Arch.HoldersOf(root) {
		st := p.Arch.Store(nid)
		for _, idx := range archive.HeldIndexes(st, root) {
			if p.Arch.LiveFragments(root) <= 5 {
				break
			}
			st.Drop(root, idx)
			removed++
		}
	}
	if p.Arch.LiveFragments(root) > 5 {
		t.Fatalf("could not degrade archive (removed %d)", removed)
	}
	p.Run(5 * time.Minute)
	if live := p.Arch.LiveFragments(root); live < 8 {
		t.Fatalf("scheduler left archive at %d live fragments", live)
	}
	if st := sched.Stats(); st.Repairs == 0 || st.RepairFailed != 0 {
		t.Fatalf("scheduler stats after repair: %+v", st)
	}
}

// readPlain decrypts a version directly (test helper).
func readPlain(v *object.Version, key crypt.BlockKey) ([]byte, error) {
	return object.NewView(v, key).Read()
}
