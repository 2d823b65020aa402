// Crash-fault coverage lives in an external test package so it can
// back the service with real blobstore volumes (blobstore imports
// archive; an in-package test would be an import cycle).
package archive_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/blobstore"
	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// crashWorld builds a service over real volumes (or memory when dir is
// empty) with two archives stored and synced.
func crashWorld(t *testing.T, seed int64, dir string) (*sim.Kernel, *archive.Service) {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{})
	nodes := net.AddRandomNodes(12, 100, 3)
	svc := archive.NewService(net, nodes)
	if dir != "" {
		svc.SetStoreFactory(func(id simnet.NodeID) archive.Store {
			s, err := blobstore.Open(blobstore.Config{
				Path: filepath.Join(dir, fmt.Sprintf("vol-%06d.log", id)),
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	}
	cfg := archive.Config{DataShards: 4, TotalFragments: 12}
	for i := 0; i < 2; i++ {
		data := make([]byte, 1500)
		rand.New(rand.NewSource(seed + int64(i))).Read(data)
		if _, err := svc.Archive(data, cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	return k, svc
}

// TestServiceTornWrite: on a disk backend a torn rewrite runs crash
// recovery and loses nothing durable; on the memory backend it reports
// false after consuming the same RNG draws (so mixed-fault plans stay
// comparable across the ablation).
func TestServiceTornWrite(t *testing.T) {
	_, svc := crashWorld(t, 71, t.TempDir())
	defer svc.CloseStores()
	nid := svc.StoreNodes()[0]
	rng := rand.New(rand.NewSource(1))
	if !svc.TornWrite(nid, rng) {
		t.Fatal("torn write did not run on a disk backend")
	}
	if bad := svc.CountBadFragments(); bad != 0 {
		t.Fatalf("%d corrupt fragments after torn write", bad)
	}
	for _, root := range svc.Roots() {
		if live := svc.LiveFragments(root); live != 12 {
			t.Fatalf("torn write lost durable fragments: %d/12 for %v", live, root)
		}
	}

	_, memSvc := crashWorld(t, 71, "")
	memRng := rand.New(rand.NewSource(1))
	if memSvc.TornWrite(svc.StoreNodes()[0], memRng) {
		t.Fatal("memory backend claimed a torn write")
	}
	// Identical RNG consumption on both backends.
	if a, b := rng.Int63(), memRng.Int63(); a != b {
		t.Fatalf("RNG streams diverged across backends: %d vs %d", a, b)
	}
}

// TestServicePartialFsync: unsynced fragments die with the crash and
// land in the damage ledger; synced ones survive.  Memory backends
// lose nothing.
func TestServicePartialFsync(t *testing.T) {
	_, svc := crashWorld(t, 73, t.TempDir())
	defer svc.CloseStores()

	// Everything so far is synced; a partial-fsync crash is harmless.
	nid := svc.StoreNodes()[0]
	if lost := svc.PartialFsync(nid); lost != 0 {
		t.Fatalf("lost %d synced fragments to a pre-fsync crash", lost)
	}

	// Open an unsynced window and crash inside it.
	svc.SyncEachBatch = false
	data := make([]byte, 900)
	rand.New(rand.NewSource(99)).Read(data)
	root, err := svc.Archive(data, archive.Config{DataShards: 4, TotalFragments: 12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	totalLost := 0
	for _, id := range svc.StoreNodes() {
		totalLost += svc.PartialFsync(id)
	}
	if totalLost == 0 {
		t.Fatal("whole-cluster pre-fsync crash lost nothing unsynced")
	}
	if _, damaged := svc.DamagedSince(root); !damaged {
		t.Fatal("lost root missing from the damage ledger")
	}
	if svc.DirtyStores() != 0 {
		t.Fatalf("%d stores still dirty after crashing them all", svc.DirtyStores())
	}

	_, memSvc := crashWorld(t, 73, "")
	memSvc.SyncEachBatch = false
	if _, err := memSvc.Archive(data, archive.Config{DataShards: 4, TotalFragments: 12}, nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range memSvc.StoreNodes() {
		if lost := memSvc.PartialFsync(id); lost != 0 {
			t.Fatalf("memory backend lost %d fragments to a fsync crash", lost)
		}
	}
}

// TestSchedulerInstrumented: scheduler counters mirror into the obs
// registry, and instrumentation does not change what the scheduler
// does (same stats with and without a registry).
func TestSchedulerInstrumented(t *testing.T) {
	run := func(reg *obs.Registry) archive.SchedulerStats {
		k, svc := crashWorld(t, 77, t.TempDir())
		defer svc.CloseStores()
		nid := svc.StoreNodes()[0]
		root := svc.RootsHeldBy(nid)[0]
		svc.CorruptFragment(nid, root, archive.HeldIndexes(svc.Store(nid), root)[0])
		sc := archive.NewScheduler(svc, archive.SchedulerConfig{
			ScrubInterval: 10 * time.Second,
			Threshold:     5,
			FlushInterval: 20 * time.Second,
		})
		sc.Instrument(reg)
		stop := sc.Start()
		defer stop()
		k.RunFor(5 * time.Minute)
		return sc.Stats()
	}
	reg := obs.NewRegistry()
	instrumented := run(reg)
	bare := run(nil)
	if instrumented != bare {
		t.Fatalf("instrumentation changed the trajectory:\nwith: %+v\nbare: %+v", instrumented, bare)
	}
	if instrumented.ScrubBad == 0 || instrumented.Repairs == 0 || instrumented.Flushes == 0 {
		t.Fatalf("scheduler did no work: %+v", instrumented)
	}
	snap := fmt.Sprintf("%v", reg.Snapshot())
	for _, want := range []string{"scrub frags", "scrub bad", "scrub bg_repairs", "scrub store_flushes"} {
		if !contains(snap, want) {
			t.Fatalf("registry snapshot missing %q:\n%s", want, snap)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
