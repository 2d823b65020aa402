package fault_test

import (
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/fault"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// dataWorld builds an archival world with two stored archives for the
// data-plane faults to chew on.
func dataWorld(t *testing.T, seed int64) (*sim.Kernel, *simnet.Network, *archive.Service) {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{})
	nodes := net.AddRandomNodes(12, 100, 3)
	svc := archive.NewService(net, nodes)
	cfg := archive.Config{DataShards: 4, TotalFragments: 12}
	for i := 0; i < 2; i++ {
		data := make([]byte, 1500)
		rand.New(rand.NewSource(seed + int64(i))).Read(data)
		if _, err := svc.Archive(data, cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	return k, net, svc
}

func TestBitRotCorruptsSilently(t *testing.T) {
	k, net, svc := dataWorld(t, 1)
	plan := fault.NewPlan("rot").
		BitRot(1.0, 10*time.Second, time.Second, time.Minute)
	eng := fault.Install(net, *plan)
	eng.BindData(svc)
	k.RunUntil(2 * time.Minute)

	if eng.DataHits == 0 {
		t.Fatal("bit rot never struck")
	}
	if bad := svc.CountBadFragments(); bad == 0 {
		t.Fatal("no corrupt fragments on disk")
	}
	if len(svc.DamagedRoots()) == 0 {
		t.Fatal("corruption not recorded in damage ledger")
	}
	// The rot window closed at 1m: no further strikes accumulate.
	hits := eng.DataHits
	k.RunUntil(4 * time.Minute)
	if eng.DataHits != hits {
		t.Fatalf("rot struck outside its window: %d -> %d", hits, eng.DataHits)
	}
}

func TestBitRotDeterministic(t *testing.T) {
	run := func() (int, int) {
		k, net, svc := dataWorld(t, 5)
		plan := fault.NewPlan("rot").BitRot(0.5, 5*time.Second, 0, time.Minute)
		eng := fault.Install(net, *plan)
		eng.BindData(svc)
		k.RunUntil(time.Minute)
		return eng.DataHits, svc.CountBadFragments()
	}
	h1, b1 := run()
	h2, b2 := run()
	if h1 != h2 || b1 != b2 {
		t.Fatalf("same seed diverged: hits %d/%d bad %d/%d", h1, h2, b1, b2)
	}
	if h1 == 0 {
		t.Fatal("fault plan never fired")
	}
}

func TestByzantineWindowTogglesNodes(t *testing.T) {
	k, net, svc := dataWorld(t, 9)
	liars := []simnet.NodeID{2, 3}
	plan := fault.NewPlan("byz").
		ByzantineStore(liars, 10*time.Second, time.Minute)
	eng := fault.Install(net, *plan)
	eng.BindData(svc)

	k.RunUntil(5 * time.Second)
	if svc.Byzantine(2) || svc.Byzantine(3) {
		t.Fatal("Byzantine before window opened")
	}
	k.RunUntil(30 * time.Second)
	if !svc.Byzantine(2) || !svc.Byzantine(3) {
		t.Fatal("window open but nodes honest")
	}
	k.RunUntil(2 * time.Minute)
	if svc.Byzantine(2) || svc.Byzantine(3) {
		t.Fatal("window closed but nodes still Byzantine")
	}
}

func TestDiskWipeEmptiesStores(t *testing.T) {
	k, net, svc := dataWorld(t, 13)
	victims := []simnet.NodeID{0, 1, 2}
	plan := fault.NewPlan("wipe").DiskWipe(victims, 20*time.Second)
	eng := fault.Install(net, *plan)
	eng.BindData(svc)
	k.RunUntil(time.Minute)

	if eng.DataHits == 0 {
		t.Fatal("wipe lost nothing")
	}
	for _, v := range victims {
		for _, root := range svc.Roots() {
			if len(archive.HeldIndexes(svc.Store(v), root)) != 0 {
				t.Fatalf("node %d still holds fragments of %v", v, root)
			}
		}
	}
	if len(svc.DamagedRoots()) == 0 {
		t.Fatal("wipe not recorded in damage ledger")
	}
}

func TestCrashGroupIsCorrelated(t *testing.T) {
	k, net, _ := dataWorld(t, 17)
	group := []simnet.NodeID{4, 5, 6}
	plan := fault.NewPlan("az").CrashGroup(group, 10*time.Second, 30*time.Second)
	fault.Install(net, *plan)

	k.RunUntil(15 * time.Second)
	for _, nd := range group {
		if !net.Node(nd).Down() {
			t.Fatalf("node %d survived the group crash", nd)
		}
	}
	k.RunUntil(time.Minute)
	for _, nd := range group {
		if net.Node(nd).Down() {
			t.Fatalf("node %d did not recover with the group", nd)
		}
	}
}

func TestUninstallDisarmsDataFaults(t *testing.T) {
	k, net, svc := dataWorld(t, 21)
	plan := fault.NewPlan("rot").BitRot(1.0, 5*time.Second, time.Second, 0)
	eng := fault.Install(net, *plan)
	eng.BindData(svc)
	k.RunUntil(20 * time.Second)
	hits := eng.DataHits
	if hits == 0 {
		t.Fatal("rot never struck before uninstall")
	}
	eng.Uninstall()
	k.RunUntil(2 * time.Minute)
	if eng.DataHits != hits {
		t.Fatalf("rot struck after Uninstall: %d -> %d", hits, eng.DataHits)
	}
}
