package archive

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/erasure"
	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// repairWorld builds a small archival world: one archive spread over 16
// stores, with an instrumented service so tests can watch the
// repair_failed counter.
func repairWorld(t *testing.T, seed int64) (*sim.Kernel, *Service, *obs.Registry, simnet.NodeID, Config, []byte) {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{})
	nodes := net.AddRandomNodes(16, 100, 4)
	svc := NewService(net, nodes)
	reg := obs.NewRegistry()
	svc.Instrument(reg, nil)
	cfg := Config{DataShards: 4, TotalFragments: 16}
	data := make([]byte, 2000)
	rand.New(rand.NewSource(seed)).Read(data)
	root, err := svc.Archive(data, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = root
	return k, svc, reg, 0, cfg, data
}

// TestSchedulerReportsUnrecoverable is the regression test for the old
// silent-failure path: a repair that cannot gather enough verifying
// fragments must surface an error, count under archive/repair_failed
// and stay queued — not vanish into a skipped loop iteration.
func TestSchedulerReportsUnrecoverable(t *testing.T) {
	k, svc, reg, _, _, _ := repairWorld(t, 7)
	roots := svc.Roots()
	if len(roots) != 1 {
		t.Fatalf("want 1 root, got %d", len(roots))
	}
	root := roots[0]

	// Destroy redundancy beyond recovery: corrupt every stored fragment.
	for _, id := range svc.StoreNodes() {
		store := svc.Store(id)
		for _, idx := range store.Indexes(root) {
			if !svc.CorruptFragment(id, root, idx) {
				t.Fatalf("corrupt %v/%d on node %d failed", root, idx, id)
			}
		}
	}
	if got := svc.LiveFragments(root); got != 0 {
		t.Fatalf("still %d live fragments after total corruption", got)
	}

	sc := NewScheduler(svc, SchedulerConfig{
		ScrubInterval:  time.Hour, // the redundancy scan alone must notice
		RepairInterval: time.Minute,
		Threshold:      16,
	})
	defer sc.Start()()
	k.RunFor(time.Minute + time.Second)
	st := sc.Stats()
	if st.Repairs != 0 {
		t.Fatalf("unrecoverable archive reported repaired %d times", st.Repairs)
	}
	if st.RepairFailed != 1 || sc.PendingRepairs() != 1 {
		t.Fatalf("unrecoverable archive: %d failures, %d pending, want 1 and 1", st.RepairFailed, sc.PendingRepairs())
	}
	if got := reg.Counter(obs.NodeWide, "archive", "repair_failed").Value(); got != 1 {
		t.Fatalf("repair_failed = %d, want 1", got)
	}
	// The error the scheduler counted names the cause.
	if err := svc.RepairRoot(root, nil, nil); !errors.Is(err, erasure.ErrNotEnoughFragments) {
		t.Fatalf("error should wrap ErrNotEnoughFragments, got %v", err)
	}
	// The damage stays on the books: an unrecoverable archive is still
	// damaged, and a later tick fails again rather than forgetting.
	if _, damaged := svc.DamagedSince(root); !damaged {
		t.Fatal("damage record cleared by a failed repair")
	}
	k.RunFor(10 * time.Minute)
	if st := sc.Stats(); st.RepairFailed < 2 || st.Repairs != 0 || sc.PendingRepairs() != 1 {
		t.Fatalf("later ticks forgot the root: %+v, %d pending", st, sc.PendingRepairs())
	}
}

// TestRepairRootClearsDamage covers the happy path: partial rot is
// repairable, the sweep fixes it, and the damage record is cleared.
func TestRepairRootClearsDamage(t *testing.T) {
	k, svc, reg, _, _, want := repairWorld(t, 11)
	root := svc.Roots()[0]
	k.RunFor(time.Second)

	// Rot a third of the fragments — well within RS tolerance.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5; i++ {
		if _, ok := svc.CorruptRandom(simnet.NodeID(i), rng); !ok {
			t.Fatalf("node %d held nothing to corrupt", i)
		}
	}
	if _, damaged := svc.DamagedSince(root); !damaged {
		t.Fatal("corruption did not record damage")
	}
	if bad := svc.CountBadFragments(); bad == 0 {
		t.Fatal("no bad fragments on disk after corruption")
	}

	if err := svc.RepairRoot(root, nil, nil); err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	if _, damaged := svc.DamagedSince(root); damaged {
		t.Fatal("successful repair left the damage record in place")
	}
	if got := reg.Counter(obs.NodeWide, "archive", "repairs").Value(); got != 1 {
		t.Fatalf("repairs = %d, want 1", got)
	}

	// The repaired archive reconstructs to the original bytes.
	var got []byte
	svc.Retrieve(0, root, 2, 30*time.Second, func(b []byte, err error, _ time.Duration) {
		if err != nil {
			t.Fatalf("retrieve after repair: %v", err)
		}
		got = b
	})
	k.Run()
	if string(got) != string(want) {
		t.Fatal("repaired archive decodes to wrong bytes")
	}
}

// TestRepairRootExcludesSuspects checks the auditor-facing exclude set:
// repair must move fragments off excluded nodes when alternatives
// exist.
func TestRepairRootExcludesSuspects(t *testing.T) {
	_, svc, _, _, _, _ := repairWorld(t, 13)
	root := svc.Roots()[0]
	exclude := map[simnet.NodeID]bool{1: true, 2: true}
	if err := svc.RepairRoot(root, nil, exclude); err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	for _, nid := range svc.HoldersOf(root) {
		if exclude[nid] {
			t.Fatalf("placement still uses excluded node %d", nid)
		}
	}
}

// TestByzantineServesGarbage pins the wire behaviour SetByzantine buys:
// fragments served by a marked node fail verification at the receiver
// while the on-disk copy stays intact.
func TestByzantineServesGarbage(t *testing.T) {
	_, svc, _, _, _, _ := repairWorld(t, 17)
	root := svc.Roots()[0]
	holders := svc.HoldersOf(root)
	liar := holders[0]
	svc.SetByzantine(liar, true)
	if !svc.Byzantine(liar) {
		t.Fatal("Byzantine mark did not stick")
	}
	sf, ok := svc.ServeFragment(liar, root)
	if !ok {
		t.Fatal("liar claims to hold nothing")
	}
	if sf.Verify() {
		t.Fatal("Byzantine node served a verifying fragment")
	}
	// On disk the fragment is untouched — the lie is wire-only.
	if bad := svc.VerifyHeld(liar, root); len(bad) != 0 {
		t.Fatalf("garbling leaked into the store: bad indexes %v", bad)
	}
	svc.SetByzantine(liar, false)
	sf, _ = svc.ServeFragment(liar, root)
	if !sf.Verify() {
		t.Fatal("cleared node still serves garbage")
	}
}

// TestWipeNodeRecordsDamage: wiping a store loses fragments and books
// the damage per root.
func TestWipeNodeRecordsDamage(t *testing.T) {
	_, svc, _, _, _, _ := repairWorld(t, 19)
	root := svc.Roots()[0]
	victim := svc.HoldersOf(root)[0]
	held := len(svc.Store(victim).Indexes(root))
	if held == 0 {
		t.Fatal("victim holds nothing")
	}
	lost := svc.WipeNode(victim)
	if lost < held {
		t.Fatalf("wipe lost %d < %d held", lost, held)
	}
	if len(svc.Store(victim).Indexes(root)) != 0 {
		t.Fatal("wiped store still holds fragments")
	}
	if _, damaged := svc.DamagedSince(root); !damaged {
		t.Fatal("wipe did not record damage")
	}
}
