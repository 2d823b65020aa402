package archive

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// storeWorld builds a service over n nodes in d domains with several
// archives, returning the service and its roots.
func storeWorld(t *testing.T, seed int64, n, d, archives int) (*Service, []guid.GUID) {
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
	return svc, roots
}

// degradedRepairRun drops half of every archive's fragments (so
// LiveFragments <= 4 while staying recoverable), lets one repair tick
// with budget for all of them run, and returns the roots in the order
// the tick repaired them plus the service.
func degradedRepairRun(t *testing.T) ([]uint64, *Service, []guid.GUID) {
	t.Helper()
	k, svc, roots := schedWorld(t, 21, 32, 4, 12)
	for _, root := range roots {
		dropped := 0
		for _, nid := range svc.HoldersOf(root) {
			for _, idx := range HeldIndexes(svc.Store(nid), root) {
				if dropped < 4 {
					svc.Store(nid).Drop(root, idx)
					dropped++
				}
			}
		}
	}
	tr := obs.NewTracer(64)
	svc.Instrument(nil, tr)
	sc := NewScheduler(svc, SchedulerConfig{
		ScrubInterval:  time.Hour,
		RepairsPerTick: len(roots),
		Threshold:      4,
	})
	defer sc.Start()()
	k.RunFor(time.Minute + time.Second)
	if st := sc.Stats(); st.RepairFailed != 0 || st.Repairs != int64(len(roots)) {
		t.Fatalf("repaired %d of %d degraded archives, %d failures", st.Repairs, len(roots), st.RepairFailed)
	}
	var order []uint64
	for _, e := range tr.Events() {
		if e.Event == "repair" {
			order = append(order, e.ID)
		}
	}
	return order, svc, roots
}

// TestSchedulerRepairsInGUIDOrder is the regression test for the
// interleaved sweep: a repair tick must collect (and sort) its root set
// before repairing anything, because RepairRoot mutates placements
// mid-tick.  The interleaved form — `for root := range s.archives {
// RepairRoot(...) }` — visits roots in random map order, so
// with 12 degraded archives the repair order comes back unsorted with
// probability 1 - 1/12!.
func TestSchedulerRepairsInGUIDOrder(t *testing.T) {
	order, svc, roots := degradedRepairRun(t)
	want := make([]uint64, 0, len(roots))
	for _, root := range svc.Roots() {
		want = append(want, root.Uint64())
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("tick repaired roots out of GUID order:\n%v\nwant %v", order, want)
	}

	// Same seed, same degradation => identical repair order and
	// placements across runs.
	order2, svc2, _ := degradedRepairRun(t)
	if !reflect.DeepEqual(order, order2) {
		t.Fatalf("repair order diverged across identical runs:\n%v\n%v", order, order2)
	}
	for _, root := range roots {
		p1, p2 := svc.archives[root].where, svc2.archives[root].where
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("repair placements diverged for %v: %v vs %v", root, p1, p2)
		}
	}
}

// fourMethodStore implements exactly the Store interface — no Tamper,
// no crash hooks, no durability.  It compiling as a Store is the
// assertion that neither fault injection nor Sync/Close is part of the
// interface every backend must carry.
type fourMethodStore struct{}

func (fourMethodStore) Put(StoredFragment) error                  { return nil }
func (fourMethodStore) Get(guid.GUID, int) (StoredFragment, bool) { return StoredFragment{}, false }
func (fourMethodStore) Drop(guid.GUID, int)                       {}
func (fourMethodStore) Scan(func(guid.GUID, int) bool)            {}

var _ Store = fourMethodStore{}

// TestCorruptFragmentNeedsTamperable: rot can only be injected into a
// store that opts into the fault-only interface; on one that does not,
// CorruptFragment reports failure and books no damage.
func TestCorruptFragmentNeedsTamperable(t *testing.T) {
	if n := reflect.TypeOf((*Store)(nil)).Elem().NumMethod(); n != 4 {
		t.Fatalf("archive.Store declares %d methods, want 4", n)
	}
	k := sim.NewKernel(23)
	net := simnet.New(k, simnet.Config{})
	svc := NewService(net, net.AddRandomNodes(4, 100, 2))
	svc.SetStoreFactory(func(simnet.NodeID) Store { return fourMethodStore{} })
	root, err := svc.Archive(make([]byte, 64), Config{DataShards: 2, TotalFragments: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	holder := svc.HoldersOf(root)[0]
	if svc.CorruptFragment(holder, root, 0) {
		t.Fatal("rot injected into a store with no Tamper method")
	}
	if _, damaged := svc.DamagedSince(root); damaged {
		t.Fatal("failed injection booked damage")
	}
}

// TestDisperseInsufficientDomains: a fully-excluded (or fully-down)
// domain set must surface the typed ErrInsufficientDomains — bounded
// probing, not an endless cursor spin and not an untyped error the
// repair path cannot distinguish from I/O failures.
func TestDisperseInsufficientDomains(t *testing.T) {
	svc, roots := storeWorld(t, 31, 8, 2, 1)

	// Every node excluded: both domains exhaust.
	exclude := make(map[simnet.NodeID]bool)
	for i := 0; i < 8; i++ {
		exclude[simnet.NodeID(i)] = true
	}
	_, err := svc.disperse(8, nil, 12345, exclude)
	if !errors.Is(err, ErrInsufficientDomains) {
		t.Fatalf("fully-excluded world: got %v, want ErrInsufficientDomains", err)
	}

	// RepairRoot with every node suspected falls back to ignoring the
	// suspects (data on a suspect beats no data at all).
	for id := range exclude {
		svc.SetSuspect(id, true)
	}
	if err := svc.RepairRoot(roots[0]); err != nil {
		t.Fatalf("repair should fall back past an all-suspect world: %v", err)
	}

	// Every node down: Archive surfaces the typed error too.
	for i := 0; i < 8; i++ {
		svc.net.Crash(simnet.NodeID(i))
	}
	_, err = svc.Archive(make([]byte, 64), Config{DataShards: 2, TotalFragments: 4}, nil)
	if !errors.Is(err, ErrInsufficientDomains) {
		t.Fatalf("all-down world: got %v, want ErrInsufficientDomains", err)
	}
}
