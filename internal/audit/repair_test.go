package audit

import (
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// repairWorld builds 16 stores in 4 domains holding `archives` 4-of-16
// archives.
func repairWorld(t *testing.T, seed int64, archives int) (*sim.Kernel, *simnet.Network, *archive.Service) {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{BaseLatency: 10 * time.Millisecond})
	svc := archive.NewService(net, net.AddRandomNodes(16, 100, 4))
	for i := 0; i < archives; i++ {
		data := make([]byte, 1200)
		rand.New(rand.NewSource(seed + int64(i))).Read(data)
		if _, err := svc.Archive(data, archive.Config{DataShards: 4, TotalFragments: 16}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return k, net, svc
}

// rot corrupts n fragments of root, walking its holders in ID order.
func rot(t *testing.T, svc *archive.Service, root guid.GUID, n int) {
	t.Helper()
	for _, nid := range svc.HoldersOf(root) {
		for _, idx := range archive.HeldIndexes(svc.Store(nid), root) {
			if n == 0 {
				return
			}
			if !svc.CorruptFragment(nid, root, idx) {
				t.Fatalf("corrupt %v/%d on node %d failed", root, idx, nid)
			}
			n--
		}
	}
	if n != 0 {
		t.Fatalf("root %v: %d fragments left unrotted", root, n)
	}
}

// TestUnrecoverableRootsDoNotStarveRepair: four roots rotted past
// reconstruction sort first by GUID, so a drain without backoff spends
// its whole budget of four on them every tick and the one recoverable
// root is never reached.  The failing roots must back off and leave it
// room.
func TestUnrecoverableRootsDoNotStarveRepair(t *testing.T) {
	k, net, svc := repairWorld(t, 5, 8)
	a := New(net, svc, Config{Interval: time.Minute})
	a.Start()
	k.RunUntil(5 * time.Minute)
	roots := svc.Roots()
	for _, root := range roots[:4] {
		rot(t, svc, root, 13) // 3 of 16 left: below the 4 needed
	}
	last := roots[len(roots)-1]
	rot(t, svc, last, 1)

	k.RunUntil(4 * time.Hour)
	st := a.Stats()
	if _, damaged := svc.DamagedSince(last); damaged {
		t.Fatalf("recoverable root still damaged after 4h: %+v", st)
	}
	if st.Repairs == 0 || st.RepairFailures == 0 || st.RepairsDeferred == 0 {
		t.Fatalf("want repairs, failures and backed-off deferrals: %+v", st)
	}
	for _, root := range roots[:4] {
		if _, damaged := svc.DamagedSince(root); !damaged {
			t.Fatalf("unrecoverable root %v reported repaired", root)
		}
	}
}

// TestVerdictsCoalesceIntoOneRepair: two damning verdicts on one root
// before a drain queue it once, so the drain runs exactly one
// RepairRoot — not a second one on the root the first already cleaned.
func TestVerdictsCoalesceIntoOneRepair(t *testing.T) {
	k, net, svc := repairWorld(t, 3, 1)
	tr := obs.NewTracer(64)
	svc.Instrument(nil, tr)
	a := New(net, svc, Config{Interval: time.Minute})
	root := svc.Roots()[0]
	holders := svc.HoldersOf(root)
	k.RunFor(time.Minute)
	rot(t, svc, root, 1)

	a.evidence(holders[1], root, 1)
	a.evidence(holders[2], root, 1)
	a.tick()

	calls := 0
	for _, e := range tr.Events() {
		if e.Layer == "archive" && (e.Event == "repair" || e.Event == "repair-fail") {
			calls++
		}
	}
	if calls != 1 {
		t.Fatalf("two verdicts on one root ran RepairRoot %d times, want 1", calls)
	}
	if st := a.Stats(); st.Detections != 1 || st.Repairs != 1 {
		t.Fatalf("want 1 detection and 1 repair: %+v", st)
	}
	if _, damaged := svc.DamagedSince(root); damaged {
		t.Fatal("root still damaged after the drain")
	}
}
