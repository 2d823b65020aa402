package fault_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/blobstore"
	"oceanstore/internal/fault"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// diskWorld is dataWorld on a blobstore backend: real volume files,
// real durability boundaries for the crash faults to attack.
func diskWorld(t *testing.T, seed int64, syncEachBatch bool) (*sim.Kernel, *simnet.Network, *archive.Service) {
	t.Helper()
	dir := t.TempDir()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{})
	nodes := net.AddRandomNodes(12, 100, 3)
	svc := archive.NewService(net, nodes)
	svc.SetStoreFactory(func(id simnet.NodeID) archive.Store {
		s, err := blobstore.Open(blobstore.Config{
			Path: filepath.Join(dir, fmt.Sprintf("vol-%06d.log", id)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	svc.SyncEachBatch = syncEachBatch
	cfg := archive.Config{DataShards: 4, TotalFragments: 12}
	for i := 0; i < 2; i++ {
		data := make([]byte, 1500)
		rand.New(rand.NewSource(seed + int64(i))).Read(data)
		if _, err := svc.Archive(data, cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { svc.CloseStores() })
	return k, net, svc
}

// TestTornWriteFaultNeverLosesDurableData: a drizzle of power cuts
// landing mid-append must leave every previously-stored fragment
// intact and verifying — the crash-recovery invariant, enforced under
// fault injection instead of just unit tests.
func TestTornWriteFaultNeverLosesDurableData(t *testing.T) {
	k, net, svc := diskWorld(t, 61, true)
	plan := fault.NewPlan("tears").
		TornWrites(1.0, 10*time.Second, time.Second, time.Minute)
	eng := fault.Install(net, *plan)
	eng.BindData(svc)
	k.RunUntil(2 * time.Minute)

	if eng.DataHits == 0 {
		t.Fatal("torn writes never struck a disk-backed world")
	}
	if bad := svc.CountBadFragments(); bad != 0 {
		t.Fatalf("%d fragments corrupt after torn writes", bad)
	}
	if len(svc.DamagedRoots()) != 0 {
		t.Fatalf("torn writes damaged synced data: %v", svc.DamagedRoots())
	}
	for _, root := range svc.Roots() {
		if live := svc.LiveFragments(root); live != 12 {
			t.Fatalf("root %v at %d/12 fragments after torn writes", root, live)
		}
	}
}

// TestTornWriteNoopOnMemoryBackend: the memory store has no mid-write
// moment, so the same plan records zero hits there.
func TestTornWriteNoopOnMemoryBackend(t *testing.T) {
	k, net, svc := dataWorld(t, 61)
	plan := fault.NewPlan("tears").
		TornWrites(1.0, 10*time.Second, time.Second, time.Minute)
	eng := fault.Install(net, *plan)
	eng.BindData(svc)
	k.RunUntil(2 * time.Minute)
	if eng.DataHits != 0 {
		t.Fatalf("torn writes claimed %d hits on a memory backend", eng.DataHits)
	}
}

// TestPartialFsyncLosesExactlyTheUnsyncedTail: under group commit
// (per-batch sync off) a pre-fsync crash erases the writes since the
// last sync, and only those — synced archives ride through, the
// damage ledger records the losses.
func TestPartialFsyncLosesExactlyTheUnsyncedTail(t *testing.T) {
	k, net, svc := diskWorld(t, 67, true)
	syncedRoots := svc.Roots()

	// Switch to group commit and land two more archives; their
	// fragments sit in the unsynced window.
	svc.SyncEachBatch = false
	cfg := archive.Config{DataShards: 4, TotalFragments: 12}
	for i := 0; i < 2; i++ {
		data := make([]byte, 1200)
		rand.New(rand.NewSource(100 + int64(i))).Read(data)
		if _, err := svc.Archive(data, cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	if svc.DirtyStores() == 0 {
		t.Fatal("no unsynced window to attack")
	}

	// Crash half the cluster: each unsynced archive loses the fragments
	// on those nodes but keeps enough elsewhere to reconstruct.  (A
	// whole-cluster pre-fsync crash would lose the new archives outright
	// — that is what the flush interval bounds.)
	var crashed []simnet.NodeID
	for i := 0; i < 6; i++ {
		crashed = append(crashed, simnet.NodeID(i))
	}
	plan := fault.NewPlan("power-loss").PartialFsyncAt(crashed, time.Second)
	eng := fault.Install(net, *plan)
	eng.BindData(svc)
	k.RunUntil(2 * time.Second)

	if eng.DataHits == 0 {
		t.Fatal("partial fsync lost nothing despite dirty stores")
	}
	for _, root := range syncedRoots {
		if live := svc.LiveFragments(root); live != 12 {
			t.Fatalf("synced root %v lost fragments: %d/12", root, live)
		}
	}
	if len(svc.DamagedRoots()) == 0 {
		t.Fatal("lost fragments not recorded in the damage ledger")
	}
	// The scheduler's repair path can rebuild the damaged archives from
	// surviving fragments: each archive spread 12 fragments over 12
	// nodes, and only unsynced copies vanished.
	sched := archive.NewScheduler(svc, archive.SchedulerConfig{
		RepairInterval: time.Minute,
		RepairsPerTick: 8,
		Threshold:      11,
	})
	defer sched.Start()()
	k.RunFor(time.Minute + time.Second)
	st := sched.Stats()
	if st.RepairFailed != 0 {
		t.Fatalf("%d post-crash repairs failed", st.RepairFailed)
	}
	if st.Repairs == 0 {
		t.Fatal("nothing repaired after the crash")
	}
	if len(svc.DamagedRoots()) != 0 {
		t.Fatalf("damage ledger not drained by repair: %v", svc.DamagedRoots())
	}
}

// TestPartialFsyncNoopOnMemoryBackend: map writes have no fsync to
// beat, so the fault reports zero losses there.
func TestPartialFsyncNoopOnMemoryBackend(t *testing.T) {
	k, net, svc := dataWorld(t, 67)
	plan := fault.NewPlan("power-loss").PartialFsyncAt(nil, time.Second)
	eng := fault.Install(net, *plan)
	eng.BindData(svc)
	k.RunUntil(2 * time.Second)
	if eng.DataHits != 0 {
		t.Fatalf("partial fsync claimed %d losses on a memory backend", eng.DataHits)
	}
}
