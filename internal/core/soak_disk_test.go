package core

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/guid"
	"oceanstore/internal/workload"
)

// soakRun drives a small soak world to completion and returns facts
// that any trajectory change would perturb.
func soakRun(t *testing.T, backend, dir string) (workload.EngineStats, string) {
	t.Helper()
	cfg := DefaultSoakConfig(64)
	cfg.Backend = backend
	cfg.StoreDir = dir
	cfg.ScrubInterval = 15 * time.Second
	cfg.FlushInterval = time.Minute
	w, err := NewSoakWorld(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	eng := workload.NewEngine(w.Pool.K, workload.EngineConfig{
		Clients:       cfg.Clients,
		Ops:           300,
		Mix:           workload.Mix{WriteFrac: 0.4, CreateFrac: 0.02},
		Objects:       cfg.Objects,
		ZipfS:         1.1,
		MeanWriteSize: 128,
		ClosedLoop:    true,
		MeanThink:     100 * time.Millisecond,
		RetryBackoff:  time.Second,
	}, w)
	w.StartChurn(30*time.Second, 10*time.Second)
	eng.Start()
	w.Pool.K.RunWhile(func() bool { return !eng.Done() })

	// Fingerprint the archival state: every root with the indexes each
	// holder keeps, plus network totals and scheduler counters.
	fp := ""
	for _, root := range w.Pool.Arch.Roots() {
		fp += fmt.Sprintf("%v:", root)
		for _, nid := range w.Pool.Arch.HoldersOf(root) {
			fp += fmt.Sprintf(" %d%v", nid, archive.HeldIndexes(w.Pool.Arch.Store(nid), root))
		}
		fp += "\n"
	}
	ns := w.Pool.Net.Stats()
	fp += fmt.Sprintf("net: %d msgs %d bytes %d dropped\n",
		ns.MessagesSent, ns.BytesSent, ns.MessagesDropped)
	fp += fmt.Sprintf("sched: %+v\n", w.Scheduler().Stats())
	return eng.Stats(), fp
}

// TestSoakBackendParity: the disk backend must not change the world's
// trajectory — same seed, same workload, byte-identical archival
// placements, network totals, workload stats and scheduler counters as
// the memory backend.  This is the apples-to-apples guarantee the
// memory-vs-disk ablation rests on.
func TestSoakBackendParity(t *testing.T) {
	memStats, memFP := soakRun(t, "mem", "")
	diskStats, diskFP := soakRun(t, "disk", t.TempDir())
	if !reflect.DeepEqual(memStats, diskStats) {
		t.Fatalf("workload stats diverge across backends:\nmem:  %+v\ndisk: %+v", memStats, diskStats)
	}
	if memFP != diskFP {
		t.Fatalf("trajectory fingerprints diverge across backends:\nmem:\n%s\ndisk:\n%s", memFP, diskFP)
	}
}

// TestSoakDiskWorldSurvivesReopen: a disk-backed world's volumes hold
// real state — a second world over the same directory recovers every
// fragment the first one stored.
func TestSoakDiskWorldSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultSoakConfig(64)
	cfg.Backend = "disk"
	cfg.StoreDir = dir
	w, err := NewSoakWorld(9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, id := range w.Pool.Arch.StoreNodes() {
		w.Pool.Arch.Store(id).Scan(func(guid.GUID, int) bool {
			held++
			return true
		})
	}
	if held == 0 {
		t.Fatal("no fragments stored at construction")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Same seed, same directory: stores open the existing volumes and
	// must recover every fragment.
	w2, err := NewSoakWorld(9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	bs, vols := w2.BlobStats()
	if vols == 0 {
		t.Fatal("no blobstore volumes on the disk backend")
	}
	if bs.RecoveredFrags != int64(held) {
		t.Fatalf("recovered %d fragments across volumes, want %d", bs.RecoveredFrags, held)
	}
	if bad := w2.Pool.Arch.CountBadFragments(); bad != 0 {
		t.Fatalf("%d fragments corrupt after reopen", bad)
	}
}

// TestSoakDiskConstructionUnderGroupCommit: a disk world asked for group
// commit builds without touching the file system — no volume file, no
// fsync — and the scheduler's first flush, the first event the kernel
// runs, commits every dirty volume at once.
func TestSoakDiskConstructionUnderGroupCommit(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultSoakConfig(64)
	cfg.Backend = "disk"
	cfg.StoreDir = dir
	cfg.ArchiveEvery = 1
	cfg.ScrubInterval = 30 * time.Second
	cfg.FlushInterval = 5 * time.Second
	w, err := NewSoakWorld(11, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	dirty := w.Pool.Arch.DirtyStores()
	bs, vols := w.BlobStats()
	if dirty == 0 || vols != dirty || bs.Puts == 0 {
		t.Fatalf("construction left %d dirty stores of %d volumes, %d puts", dirty, vols, bs.Puts)
	}
	if bs.Syncs != 0 || bs.Flushes != 0 {
		t.Fatalf("construction issued %d fsyncs and %d flushes under group commit", bs.Syncs, bs.Flushes)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("construction left %d files in the volume directory (%v)", len(ents), err)
	}

	ran := 0
	w.Pool.K.RunWhile(func() bool { ran++; return ran == 1 })
	if w.Pool.K.Now() != 0 || w.Pool.K.Stats().Run != 1 {
		t.Fatalf("ran %d events to %v, want one at time zero", w.Pool.K.Stats().Run, w.Pool.K.Now())
	}
	if n := w.Pool.Arch.DirtyStores(); n != 0 {
		t.Fatalf("%d stores still dirty after the first kernel event", n)
	}
	bs, _ = w.BlobStats()
	rounds, joined := w.Pool.Arch.GroupCommits()
	if bs.Syncs != int64(vols) || rounds != 1 || joined != int64(vols) {
		t.Fatalf("first flush: %d fsyncs in %d rounds over %d volumes, want one round over all %d",
			bs.Syncs, rounds, joined, vols)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != vols {
		t.Fatalf("%d volume files after the first flush, want %d", len(ents), vols)
	}
	if got := w.Scheduler().Stats().Flushes; got != 1 {
		t.Fatalf("scheduler counted %d flushes, want 1", got)
	}
}
