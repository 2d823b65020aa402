package archive

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// schedWorld is storeWorld plus the kernel, which scheduler tests need
// to advance virtual time.
func schedWorld(t *testing.T, seed int64, n, d, archives int) (*sim.Kernel, *Service, []guid.GUID) {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{})
	nodes := net.AddRandomNodes(n, 100, d)
	svc := NewService(net, nodes)
	cfg := Config{DataShards: 4, TotalFragments: 8}
	rng := rand.New(rand.NewSource(seed))
	roots := make([]guid.GUID, archives)
	for i := range roots {
		data := make([]byte, 512+i)
		rng.Read(data)
		root, err := svc.Archive(data, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		roots[i] = root
	}
	return k, svc, roots
}

// TestSchedulerScrubFindsAndRepairsRot: silent bit rot is invisible to
// LiveFragments-style redundancy checks until read back; the scrub
// pass re-reads, catches it, drops the bad copy and the repair tick
// restores full redundancy.
func TestSchedulerScrubFindsAndRepairsRot(t *testing.T) {
	k, svc, roots := schedWorld(t, 51, 24, 3, 6)

	// Rot one fragment of each of the first three archives.
	for _, root := range roots[:3] {
		nid := svc.HoldersOf(root)[0]
		idx := HeldIndexes(svc.Store(nid), root)[0]
		if !svc.CorruptFragment(nid, root, idx) {
			t.Fatal("corruption failed")
		}
	}
	if svc.CountBadFragments() != 3 {
		t.Fatalf("setup: %d bad fragments, want 3", svc.CountBadFragments())
	}

	sc := NewScheduler(svc, SchedulerConfig{
		ScrubInterval:  10 * time.Second,
		RepairsPerTick: 8,
		Threshold:      5, // DataShards+1
	})
	stop := sc.Start()
	defer stop()
	k.RunFor(10 * time.Minute)

	if bad := svc.CountBadFragments(); bad != 0 {
		t.Fatalf("%d rotted fragments still on disk after scrubbing", bad)
	}
	st := sc.Stats()
	if st.ScrubBad != 3 {
		t.Fatalf("scrub flagged %d fragments, want 3", st.ScrubBad)
	}
	if st.Repairs < 3 {
		t.Fatalf("only %d background repairs ran, want >= 3", st.Repairs)
	}
	if st.ScrubBytes == 0 || st.ScrubPasses == 0 {
		t.Fatalf("scrub accounting empty: %+v", st)
	}
	if got := len(svc.DamagedRoots()); got != 0 {
		t.Fatalf("%d roots still marked damaged after repair", got)
	}
	for _, root := range roots {
		if live := svc.LiveFragments(root); live != 8 {
			t.Fatalf("root %v at %d/8 live fragments after maintenance", root, live)
		}
	}
}

// TestSchedulerRepairBudget: with RepairsPerTick = 1 and several
// degraded archives, each repair tick fixes exactly one root (in GUID
// order) and defers the rest — rate-limited, not a repair storm.
func TestSchedulerRepairBudget(t *testing.T) {
	k, svc, roots := schedWorld(t, 53, 24, 3, 5)
	for _, root := range roots {
		dropped := 0
		for _, nid := range svc.HoldersOf(root) {
			for _, idx := range HeldIndexes(svc.Store(nid), root) {
				if dropped < 4 {
					svc.DropFragment(nid, root, idx)
					dropped++
				}
			}
		}
	}
	sc := NewScheduler(svc, SchedulerConfig{
		ScrubInterval:  time.Hour, // scrub out of the way
		RepairsPerTick: 1,
		Threshold:      5,
	})
	stop := sc.Start()
	defer stop()

	k.RunFor(time.Minute + time.Second)
	st := sc.Stats()
	if st.Repairs != 1 {
		t.Fatalf("first tick repaired %d roots, want exactly 1", st.Repairs)
	}
	if st.RepairsDeferred == 0 {
		t.Fatal("budget exhaustion not accounted as deferrals")
	}
	k.RunFor(10 * time.Minute)
	if st := sc.Stats(); st.Repairs != int64(len(roots)) {
		t.Fatalf("repaired %d of %d roots", st.Repairs, len(roots))
	}
	if len(svc.pending) != 0 {
		t.Fatalf("%d roots still pending", len(svc.pending))
	}
}

// TestSchedulerBackoffOnUnrecoverable: a root with too few fragments
// left to reconstruct fails repair; backoff must make retries sparse
// instead of burning the whole budget on it every tick.
func TestSchedulerBackoffOnUnrecoverable(t *testing.T) {
	k, svc, roots := schedWorld(t, 57, 24, 3, 2)
	// Destroy the first archive beyond recovery: < DataShards fragments.
	victim := roots[0]
	kept := 0
	for _, nid := range svc.HoldersOf(victim) {
		for _, idx := range HeldIndexes(svc.Store(nid), victim) {
			if kept < 2 {
				kept++
				continue
			}
			svc.DropFragment(nid, victim, idx)
		}
	}
	sc := NewScheduler(svc, SchedulerConfig{
		ScrubInterval:  time.Hour,
		RepairsPerTick: 4,
		Threshold:      5,
	})
	stop := sc.Start()
	defer stop()

	k.RunFor(8*time.Minute + time.Second)
	st := sc.Stats()
	// 8 repair ticks; without backoff every one would fail.  With a 2m
	// base doubling to 4m, three attempts fit (t=1m, 3m and 7m).
	if st.RepairFailed == 0 {
		t.Fatal("unrecoverable root never attempted")
	}
	if st.RepairFailed > 3 {
		t.Fatalf("backoff not applied: %d failed attempts in 8 ticks", st.RepairFailed)
	}
	if st.RepairsDeferred == 0 {
		t.Fatal("backed-off retries not accounted as deferrals")
	}
	// The unrecoverable root stays queued — operator-visible, not
	// silently forgotten.
	if len(svc.pending) != 1 {
		t.Fatalf("pending = %d, want the 1 unrecoverable root", len(svc.pending))
	}
}

// TestSchedulerGroupCommit: with FlushInterval set the scheduler turns
// off per-batch fsync; writes accumulate as dirty stores until the
// flush tick drains them, and stop() hands the discipline back.
func TestSchedulerGroupCommit(t *testing.T) {
	k, svc, _ := schedWorld(t, 59, 16, 2, 1)
	sc := NewScheduler(svc, SchedulerConfig{
		ScrubInterval: time.Hour,
		FlushInterval: time.Minute,
	})
	stop := sc.Start()
	if svc.SyncEachBatch {
		t.Fatal("scheduler did not take over durability")
	}
	if _, err := svc.Archive(make([]byte, 256), Config{DataShards: 4, TotalFragments: 8}, nil); err != nil {
		t.Fatal(err)
	}
	if svc.DirtyStores() == 0 {
		t.Fatal("group-commit mode left no dirty stores after a batch")
	}
	k.RunFor(time.Minute + time.Second)
	if svc.DirtyStores() != 0 {
		t.Fatalf("flush tick left %d dirty stores", svc.DirtyStores())
	}
	if sc.Stats().Flushes == 0 {
		t.Fatal("flush not accounted")
	}
	stop()
	if !svc.SyncEachBatch {
		t.Fatal("stop did not restore per-batch durability")
	}
}

// flakyStore is a memory store whose Sync can be made to fail.
type flakyStore struct {
	*NodeStore
	fail error
}

func (f *flakyStore) Sync() error  { return f.fail }
func (f *flakyStore) Close() error { return nil }

// TestSyncDirtyKeepsFailedStoresDirty: every store whose Sync fails —
// not just the first — stays in the dirty set, so its unsynced bytes
// are retried; and a failure on the scheduler's stop path is counted,
// not swallowed.
func TestSyncDirtyKeepsFailedStoresDirty(t *testing.T) {
	k := sim.NewKernel(67)
	net := simnet.New(k, simnet.Config{})
	svc := NewService(net, net.AddRandomNodes(16, 100, 2))
	stores := map[simnet.NodeID]*flakyStore{}
	svc.SetStoreFactory(func(id simnet.NodeID) Store {
		stores[id] = &flakyStore{NodeStore: NewNodeStore()}
		return stores[id]
	})
	sc := NewScheduler(svc, SchedulerConfig{
		ScrubInterval: time.Hour,
		FlushInterval: time.Minute,
	})
	stop := sc.Start()
	if _, err := svc.Archive(make([]byte, 256), Config{DataShards: 4, TotalFragments: 8}, nil); err != nil {
		t.Fatal(err)
	}
	ids := svc.StoreNodes()
	if len(ids) < 3 || svc.DirtyStores() != len(ids) {
		t.Fatalf("want every one of >= 3 stores dirty, have %d of %d", svc.DirtyStores(), len(ids))
	}
	errLow, errHigh := errors.New("low volume: EIO"), errors.New("high volume: EIO")
	stores[ids[1]].fail, stores[ids[len(ids)-1]].fail = errLow, errHigh

	if err := svc.SyncDirty(); err != errLow {
		t.Fatalf("SyncDirty returned %v, want the first failure in node order", err)
	}
	if svc.DirtyStores() != 2 || !svc.dirty[ids[1]] || !svc.dirty[ids[len(ids)-1]] {
		t.Fatalf("dirty set %v, want exactly the two failed stores", svc.dirty)
	}
	stores[ids[1]].fail = nil
	if err := svc.SyncDirty(); err != errHigh || svc.DirtyStores() != 1 {
		t.Fatalf("retry: err %v with %d dirty, want the remaining failure alone", err, svc.DirtyStores())
	}

	stop()
	if got := sc.Stats().FlushErrors; got != 1 {
		t.Fatalf("stop-path sync failure counted %d times, want 1", got)
	}
	stores[ids[len(ids)-1]].fail = nil
	if err := svc.SyncDirty(); err != nil || svc.DirtyStores() != 0 {
		t.Fatalf("healed store did not drain: err %v, %d dirty", err, svc.DirtyStores())
	}
}
