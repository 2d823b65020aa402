package archive_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"oceanstore/internal/archive"
	"oceanstore/internal/blobstore"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// probeStore wraps a real volume, counts Sync calls and fails them on
// demand (without touching the volume, as a dead disk would).
type probeStore struct {
	*blobstore.Store
	calls int
	fail  error
}

func (p *probeStore) Sync() error {
	p.calls++
	if p.fail != nil {
		return p.fail
	}
	return p.Store.Sync()
}

// commitWorld builds a 64-volume disk-backed service holding unsynced
// archives, with a seeded subset of volumes refusing to sync.
func commitWorld(t *testing.T, seed int64) (*archive.Service, map[simnet.NodeID]*probeStore) {
	t.Helper()
	dir := t.TempDir()
	net := simnet.New(sim.NewKernel(seed), simnet.Config{})
	svc := archive.NewService(net, net.AddRandomNodes(64, 100, 4))
	stores := map[simnet.NodeID]*probeStore{}
	svc.SetStoreFactory(func(id simnet.NodeID) archive.Store {
		s, err := blobstore.Open(blobstore.Config{Path: filepath.Join(dir, fmt.Sprintf("vol-%06d.log", id))})
		if err != nil {
			t.Fatal(err)
		}
		stores[id] = &probeStore{Store: s}
		return stores[id]
	})
	svc.SyncEachBatch = false
	rng := rand.New(rand.NewSource(seed))
	for i := 0; len(stores) < 64; i++ {
		if i > 500 {
			t.Fatalf("only %d of 64 stores materialized", len(stores))
		}
		data := make([]byte, 300+rng.Intn(900))
		rng.Read(data)
		if _, err := svc.Archive(data, archive.Config{DataShards: 4, TotalFragments: 8}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range svc.StoreNodes() {
		if rng.Intn(5) == 0 {
			stores[id].fail = fmt.Errorf("volume %d: injected EIO", id)
		}
	}
	return svc, stores
}

// TestGroupCommitParallelEqualsSerial: fanning the flush out over the
// I/O workers is observationally the serial loop — same first error,
// same dirty set, same per-volume Stats as syncing the same world's
// stores one by one in node order.  Run under -race at GOMAXPROCS=4 by
// `make race-par`.
func TestGroupCommitParallelEqualsSerial(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		// Reference: the serial loop, written out.
		ref, refStores := commitWorld(t, seed)
		var wantErr error
		wantDirty := map[simnet.NodeID]bool{}
		for _, id := range ref.StoreNodes() {
			if err := refStores[id].Sync(); err != nil {
				wantDirty[id] = true
				if wantErr == nil {
					wantErr = err
				}
			}
		}
		if len(wantDirty) < 2 {
			t.Fatalf("seed %d: %d injected failures, want several", seed, len(wantDirty))
		}

		svc, stores := commitWorld(t, seed)
		if svc.DirtyStores() != 64 {
			t.Fatalf("seed %d: %d dirty stores before the commit, want 64", seed, svc.DirtyStores())
		}
		err := svc.SyncDirty()
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("seed %d: SyncDirty error %v, serial loop's first error %v", seed, err, wantErr)
		}
		if svc.DirtyStores() != len(wantDirty) {
			t.Fatalf("seed %d: %d stores left dirty, serial loop leaves %d", seed, svc.DirtyStores(), len(wantDirty))
		}
		for _, id := range svc.StoreNodes() {
			if got, want := stores[id].Stats(), refStores[id].Stats(); got != want {
				t.Fatalf("seed %d volume %d: stats %+v, serial %+v", seed, id, got, want)
			}
			if got, want := stores[id].Unsynced() > 0, wantDirty[id]; got != want {
				t.Fatalf("seed %d volume %d: unsynced=%v, serial loop says %v", seed, id, got, want)
			}
		}
		// The next commit revisits exactly the dirty set.
		for _, p := range stores {
			p.fail = nil
		}
		if err := svc.SyncDirty(); err != nil || svc.DirtyStores() != 0 {
			t.Fatalf("seed %d: healed commit: err %v, %d dirty", seed, err, svc.DirtyStores())
		}
		for _, id := range svc.StoreNodes() {
			want := 1
			if wantDirty[id] {
				want = 2
			}
			if got := stores[id].calls; got != want {
				t.Fatalf("seed %d volume %d: synced %d times, want %d", seed, id, got, want)
			}
		}
		if err := svc.CloseStores(); err != nil {
			t.Fatal(err)
		}
		if err := ref.CloseStores(); err != nil {
			t.Fatal(err)
		}
	}
}
