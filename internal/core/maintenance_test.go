package core

import (
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/crypt"
	"oceanstore/internal/simnet"
)

func TestMaintenanceHealsLocationAfterCrashes(t *testing.T) {
	p := smallPool(50)
	p.Mesh.PointerTTL = 3 * time.Minute
	stop := p.StartMaintenance(MaintenanceConfig{
		Republish:  30 * time.Second,
		MeshRepair: time.Minute,
		TreeRepair: time.Minute,
	})
	defer stop()

	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("healed", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// Extra replicas so the object survives primary loss in the mesh.
	for _, n := range []simnet.NodeID{10, 11, 12} {
		if err := p.AddReplica(obj, n); err != nil {
			t.Fatal(err)
		}
	}
	p.Run(time.Minute)

	// Crash nodes including some holders; do NOT call any repair by
	// hand — maintenance must do it.
	for _, n := range []simnet.NodeID{0, 1, 5, 6, 7, 10} {
		p.Net.Node(n).SetDown(true)
	}
	p.Run(10 * time.Minute)

	holder, err := p.Locate(18, obj)
	if err != nil {
		t.Fatalf("locate after unattended crashes: %v", err)
	}
	if p.Net.Node(holder).Down() {
		t.Fatalf("located a dead holder %d", holder)
	}
	// The dissemination tree self-repaired: no live member parented to a
	// dead node.
	ring, _ := p.Ring(obj)
	for _, m := range ring.Tree().Members() {
		if p.Net.Node(m).Down() {
			continue
		}
		parent, err := ring.Tree().Parent(m)
		if err != nil || parent == simnet.None {
			continue
		}
		if p.Net.Node(parent).Down() {
			t.Fatalf("member %d still parented to dead %d", m, parent)
		}
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

func TestMaintenanceStops(t *testing.T) {
	p := smallPool(52)
	stop := p.StartMaintenance(DefaultMaintenanceConfig())
	stop()
	before := p.K.Pending()
	p.Run(time.Hour)
	// After stop, the periodic chain unwinds: pending work drains to 0.
	if p.K.Pending() > before {
		t.Fatalf("maintenance still scheduling after stop: %d pending", p.K.Pending())
	}
}
