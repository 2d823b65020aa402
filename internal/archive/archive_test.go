package archive

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

func TestPaperReliabilityNumbers(t *testing.T) {
	// §4.5: "with a million machines, ten percent of which are currently
	// down, simple replication without erasure codes provides only two
	// nines (0.99) of reliability.  A 1/2-rate erasure coding of a
	// document into 16 fragments gives the document over five nines of
	// reliability (0.999994)."
	repl := ReplicationAvailability(2, 0.1)
	if math.Abs(repl-0.99) > 1e-9 {
		t.Fatalf("2-way replication availability = %v, want 0.99", repl)
	}
	p16 := Availability(16, 8, 0.1)
	if p16 < 0.999994 {
		t.Fatalf("rate-1/2 16-fragment availability = %v, want > 0.999994", p16)
	}
	if Nines(p16) < 5 {
		t.Fatalf("16 fragments give %.2f nines, want >= 5", Nines(p16))
	}
	// "With 32 fragments, the reliability increases by another factor of
	// 4000" — i.e. unavailability drops by ~3.5 orders of magnitude.
	p32 := Availability(32, 16, 0.1)
	factor := (1 - p16) / (1 - p32)
	if factor < 1000 || factor > 20000 {
		t.Fatalf("32-fragment improvement factor = %.0f, want ~4000", factor)
	}
}

func TestAvailabilityEdgeCases(t *testing.T) {
	if Availability(0, 0, 0.1) != 0 {
		t.Fatal("f=0 must be 0")
	}
	if Availability(8, 8, 0.9) != 1 {
		t.Fatal("rf>=f must be 1")
	}
	if got := Availability(8, 4, 0); got != 1 {
		t.Fatalf("pDown=0 gives %v", got)
	}
	if got := Availability(8, 4, 1); got != 0 {
		t.Fatalf("pDown=1 gives %v", got)
	}
	if !math.IsInf(Nines(1), 1) {
		t.Fatal("Nines(1) must be +Inf")
	}
}

func TestMonteCarloMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		f, rf int
		p     float64
	}{
		{16, 8, 0.1}, {32, 16, 0.2}, {8, 2, 0.3},
	} {
		closed := Availability(tc.f, tc.rf, tc.p)
		mc := AvailabilityMonteCarlo(tc.f, tc.rf, tc.p, 20000, rng)
		if math.Abs(closed-mc) > 0.02 {
			t.Fatalf("f=%d rf=%d p=%.1f: closed %v vs mc %v", tc.f, tc.rf, tc.p, closed, mc)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg := Config{DataShards: 8, TotalFragments: 16}
	data := []byte("the archival form is a permanent, read-only version of the object")
	root, frags, err := Encode(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 16 {
		t.Fatalf("fragments = %d", len(frags))
	}
	for i := range frags {
		if !frags[i].Verify() {
			t.Fatalf("fragment %d fails self-verification", i)
		}
		if frags[i].Root != root {
			t.Fatal("fragment root mismatch")
		}
	}
	got, err := Decode(frags[5:13], cfg) // any 8 of 16
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("decode: %v", err)
	}
}

func TestDecodeRejectsCorruptFragments(t *testing.T) {
	cfg := Config{DataShards: 4, TotalFragments: 8}
	data := []byte("verify everything")
	_, frags, _ := Encode(data, cfg)
	// Corrupt 4 fragments; the other 4 suffice and garbage is discarded.
	for i := 0; i < 4; i++ {
		frags[i].Data[0] ^= 0xff
	}
	got, err := Decode(frags, cfg)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("decode with corrupt fragments: %v", err)
	}
	// All corrupted: no verified fragments at all.
	for i := 4; i < 8; i++ {
		frags[i].Data[0] ^= 0xff
	}
	if _, err := Decode(frags, cfg); err == nil {
		t.Fatal("decode succeeded with zero valid fragments")
	}
}

func TestArchiveGUIDIsContentAddress(t *testing.T) {
	cfg := Config{DataShards: 4, TotalFragments: 8}
	r1, _, _ := Encode([]byte("same data"), cfg)
	r2, _, _ := Encode([]byte("same data"), cfg)
	r3, _, _ := Encode([]byte("diff data"), cfg)
	if r1 != r2 {
		t.Fatal("same data must give same archival GUID")
	}
	if r1 == r3 {
		t.Fatal("different data gave same archival GUID")
	}
}

// domainSpread reports how many distinct domains a placement uses and
// the maximum number of fragments co-located in a single domain.
func domainSpread(p Placement, net *simnet.Network) (domains, maxPerDomain int) {
	count := map[int]int{}
	for _, nid := range p {
		count[net.Node(nid).Domain()]++
	}
	for _, c := range count {
		if c > maxPerDomain {
			maxPerDomain = c
		}
	}
	return len(count), maxPerDomain
}

func TestDisperseSpreadsAcrossDomains(t *testing.T) {
	k := sim.NewKernel(2)
	net := simnet.New(k, simnet.Config{})
	svc := NewService(net, net.AddRandomNodes(40, 100, 8)) // 8 domains
	placement, err := svc.disperse(32, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	domains, maxPer := domainSpread(placement, net)
	if domains < 8 {
		t.Fatalf("placement used %d domains, want 8", domains)
	}
	if maxPer > 32/8+1 {
		t.Fatalf("one domain holds %d fragments", maxPer)
	}
}

func TestDisperseSkipsDownNodesAndRanksDomains(t *testing.T) {
	k := sim.NewKernel(3)
	net := simnet.New(k, simnet.Config{})
	nodes := net.AddRandomNodes(20, 100, 4)
	svc := NewService(net, nodes)
	for _, n := range nodes {
		if n.Domain() == 2 {
			n.SetDown(true)
		}
	}
	placement, err := svc.disperse(16, []int{3, 1, 0}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for idx, nid := range placement {
		if net.Node(nid).Down() {
			t.Fatalf("fragment %d placed on a down node", idx)
		}
		if net.Node(nid).Domain() == 2 {
			t.Fatalf("fragment %d placed in dead domain", idx)
		}
	}
	// Ranked domains are visited in rank order ahead of the rest: with
	// one fragment per live domain, seed 0 starts at the most reliable.
	first, err := svc.disperse(3, []int{3, 1, 0}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{3, 1, 0} {
		if got := net.Node(first[i]).Domain(); got != want {
			t.Fatalf("fragment %d landed in domain %d, want ranked domain %d", i, got, want)
		}
	}
	// All nodes down: error.
	for _, n := range nodes {
		n.SetDown(true)
	}
	if _, err := svc.disperse(4, nil, 0, nil); !errors.Is(err, ErrInsufficientDomains) {
		t.Fatalf("dispersal onto dead fleet: err %v, want ErrInsufficientDomains", err)
	}
}

func TestNodeStoreVerifiesOnPut(t *testing.T) {
	cfg := Config{DataShards: 2, TotalFragments: 4}
	_, frags, _ := Encode([]byte("data"), cfg)
	ns := NewNodeStore()
	if err := ns.Put(frags[0]); err != nil {
		t.Fatal(err)
	}
	bad := frags[1]
	bad.Data = append([]byte(nil), bad.Data...)
	bad.Data[0] ^= 1
	if err := ns.Put(bad); err == nil {
		t.Fatal("corrupt fragment accepted")
	}
	if got, ok := ns.Get(frags[0].Root, 0); !ok || got.Index != 0 {
		t.Fatal("get failed")
	}
	if idx := ns.Indexes(frags[0].Root); len(idx) != 1 || idx[0] != 0 {
		t.Fatalf("indexes = %v", idx)
	}
	ns.Drop(frags[0].Root, 0)
	if _, ok := ns.Get(frags[0].Root, 0); ok {
		t.Fatal("dropped fragment still present")
	}
}

func newServiceNet(t *testing.T, n int, drop float64, seed int64) (*sim.Kernel, *simnet.Network, *Service) {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{
		BaseLatency:    20 * time.Millisecond,
		LatencyPerUnit: time.Millisecond,
		DropProb:       drop,
	})
	nodes := net.AddRandomNodes(n, 50, 6)
	return k, net, NewService(net, nodes)
}

func TestServiceArchiveAndRetrieve(t *testing.T) {
	k, _, svc := newServiceNet(t, 40, 0, 4)
	data := make([]byte, 5000)
	rand.New(rand.NewSource(5)).Read(data)
	root, err := svc.Archive(data, Config{DataShards: 8, TotalFragments: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var gotErr error
	svc.Retrieve(0, root, 0, 10*time.Second, func(d []byte, err error, lat time.Duration) {
		got, gotErr = d, err
	})
	k.RunFor(20 * time.Second)
	if gotErr != nil || !bytes.Equal(got, data) {
		t.Fatalf("retrieve: %v", gotErr)
	}
	if svc.LiveFragments(root) != 16 {
		t.Fatalf("live fragments = %d", svc.LiveFragments(root))
	}
}

func TestRetrieveUnknownRoot(t *testing.T) {
	_, _, svc := newServiceNet(t, 10, 0, 6)
	called := false
	svc.Retrieve(0, guid.FromData([]byte("missing")), 0, time.Second, func(d []byte, err error, _ time.Duration) {
		called = true
		if err == nil {
			t.Fatal("unknown root retrieved")
		}
	})
	if !called {
		t.Fatal("callback not invoked")
	}
}

func TestExtraFragmentsBeatDrops(t *testing.T) {
	// E6 property: under message loss, requesting extra fragments raises
	// the success rate.
	run := func(extra int) int {
		ok := 0
		for trial := 0; trial < 12; trial++ {
			k, _, svc := newServiceNet(t, 40, 0.25, int64(100+trial))
			data := make([]byte, 2000)
			rand.New(rand.NewSource(int64(trial))).Read(data)
			root, err := svc.Archive(data, Config{DataShards: 8, TotalFragments: 32}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var done bool
			svc.Retrieve(0, root, extra, 5*time.Second, func(d []byte, err error, _ time.Duration) {
				if err == nil && bytes.Equal(d, data) {
					done = true
				}
			})
			k.RunFor(10 * time.Second)
			if done {
				ok++
			}
		}
		return ok
	}
	without := run(0)
	with := run(12)
	if with <= without {
		t.Fatalf("extras did not help: %d/12 vs %d/12", without, with)
	}
	if with < 10 {
		t.Fatalf("with 12 extras only %d/12 succeeded", with)
	}
}

func TestRetrieveSurvivesNodeFailures(t *testing.T) {
	k, net, svc := newServiceNet(t, 30, 0, 7)
	data := make([]byte, 3000)
	rand.New(rand.NewSource(8)).Read(data)
	root, _ := svc.Archive(data, Config{DataShards: 8, TotalFragments: 32}, nil)
	// Kill half the fleet (not node 0, the requester).
	down := 0
	for i := 1; i < 30 && down < 15; i += 2 {
		net.Node(simnet.NodeID(i)).SetDown(true)
		down++
	}
	var got []byte
	svc.Retrieve(0, root, 8, 10*time.Second, func(d []byte, err error, _ time.Duration) { got = d })
	k.RunFor(20 * time.Second)
	if !bytes.Equal(got, data) {
		t.Fatal("retrieval failed after losing half the fleet")
	}
}

// TestSchedulerRestoresRedundancy: an archive whose live redundancy has
// decayed to the threshold is rebuilt to (nearly) full strength by the
// first repair tick, and a healthy archive is left alone afterwards.
func TestSchedulerRestoresRedundancy(t *testing.T) {
	k, net, svc := newServiceNet(t, 30, 0, 9)
	data := make([]byte, 2000)
	rand.New(rand.NewSource(10)).Read(data)
	root, _ := svc.Archive(data, Config{DataShards: 8, TotalFragments: 32}, nil)
	// Degrade: kill nodes holding fragments until only ~12 live.
	placement, _ := svc.Placement(root)
	killed := map[simnet.NodeID]bool{}
	for _, nid := range placement {
		if svc.LiveFragments(root) <= 12 {
			break
		}
		if nid != 0 && !killed[nid] {
			net.Node(nid).SetDown(true)
			killed[nid] = true
		}
	}
	before := svc.LiveFragments(root)
	if before > 12 {
		t.Fatalf("degradation failed: %d live", before)
	}
	sc := NewScheduler(svc, SchedulerConfig{
		ScrubInterval:  time.Hour, // scrub out of the way
		RepairInterval: time.Minute,
		Threshold:      16,
	})
	defer sc.Start()()
	k.RunFor(time.Minute + time.Second)
	if st := sc.Stats(); st.Repairs != 1 || st.RepairFailed != 0 {
		t.Fatalf("first tick: %d repairs, %d failures, want 1 and 0", st.Repairs, st.RepairFailed)
	}
	after := svc.LiveFragments(root)
	if after < 30 {
		t.Fatalf("after repair only %d live fragments", after)
	}
	// A healthy archive is left alone.
	k.RunFor(10 * time.Minute)
	if st := sc.Stats(); st.Repairs != 1 || sc.PendingRepairs() != 0 {
		t.Fatalf("healthy archive repaired again: %d repairs, %d pending", st.Repairs, sc.PendingRepairs())
	}
}

func TestTornadoConfigRoundTrip(t *testing.T) {
	cfg := Config{DataShards: 8, TotalFragments: 32, UseTornado: true, TornadoSeed: 42}
	data := make([]byte, 4000)
	rand.New(rand.NewSource(11)).Read(data)
	root, frags, err := Encode(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if root.IsZero() {
		t.Fatal("zero root")
	}
	got, err := Decode(frags, cfg)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("tornado decode: %v", err)
	}
}
