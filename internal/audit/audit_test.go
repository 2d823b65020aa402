package audit_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/audit"
	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// auditWorld builds a 16-store world with three archives and a default
// fast-cadence auditor config.
func auditWorld(t *testing.T, seed int64) (*sim.Kernel, *simnet.Network, *archive.Service) {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{BaseLatency: 10 * time.Millisecond})
	nodes := net.AddRandomNodes(16, 100, 4)
	svc := archive.NewService(net, nodes)
	cfg := archive.Config{DataShards: 4, TotalFragments: 16}
	for i := 0; i < 3; i++ {
		data := make([]byte, 1200)
		rand.New(rand.NewSource(seed + int64(i))).Read(data)
		if _, err := svc.Archive(data, cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	return k, net, svc
}

func fastCfg() audit.Config {
	return audit.Config{Interval: time.Minute}
}

func TestHealthyWorldStaysQuiet(t *testing.T) {
	k, net, svc := auditWorld(t, 1)
	a := audit.New(net, svc, fastCfg())
	a.Start()
	k.RunUntil(time.Hour)
	st := a.Stats()
	if st.Polls == 0 || st.Agrees == 0 {
		t.Fatalf("auditor idle in a healthy world: %+v", st)
	}
	if st.Detections != 0 || st.Disagrees != 0 || st.Repairs != 0 {
		t.Fatalf("false alarms in a healthy world: %+v", st)
	}
	if st.Healthy == 0 {
		t.Fatalf("no clean bills of health issued: %+v", st)
	}
}

func TestAuditDetectsAndRepairsBitRot(t *testing.T) {
	k, net, svc := auditWorld(t, 3)
	a := audit.New(net, svc, fastCfg())
	reg := obs.NewRegistry()
	a.Instrument(reg, nil)
	a.Start()

	// Rot several fragments at t=5m.
	k.RunUntil(5 * time.Minute)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		if _, ok := svc.CorruptRandom(simnet.NodeID(i), rng); !ok {
			t.Fatalf("node %d held nothing", i)
		}
	}
	if len(svc.DamagedRoots()) == 0 {
		t.Fatal("no damage recorded")
	}

	k.RunUntil(60 * time.Minute)
	st := a.Stats()
	if st.Detections == 0 {
		t.Fatalf("auditor never detected the rot: %+v", st)
	}
	if st.Repairs == 0 {
		t.Fatalf("auditor never repaired: %+v", st)
	}
	if left := svc.DamagedRoots(); len(left) != 0 {
		t.Fatalf("unrepaired damage remains: %v (stats %+v)", left, st)
	}
	if svc.CountBadFragments() != 0 {
		t.Fatal("bad fragments survive on disk after repair")
	}
	if a.DetectionLatency.Count() == 0 {
		t.Fatal("no detection latency observed")
	}
	// The registry reads the Stats fields; it keeps no copy of its own.
	for name, want := range map[string]int64{
		"polls": st.Polls, "votes": st.VotesServed, "agrees": st.Agrees,
		"disagrees": st.Disagrees, "missing": st.Missing, "healthy": st.Healthy,
		"inconclusive": st.Inconclusive, "detections": st.Detections, "repairs": st.Repairs,
		"repair_failed": st.RepairFailures, "suppressed": st.VotesSuppressed,
	} {
		if got := reg.CounterValue(obs.NodeWide, "audit", name); got != want {
			t.Fatalf("audit/%s = %d, Stats say %d", name, got, want)
		}
	}
}

// TestInstrumentMidRunReadsLifetime: a registry attached after the
// auditor's first detections dumps the detection-latency histogram the
// auditor keeps, so its count is the lifetime detections counter,
// before the attach and after it.  A tracer attached with it sees only
// the detections after.  The zero config is the default one.
func TestInstrumentMidRunReadsLifetime(t *testing.T) {
	k, net, svc := auditWorld(t, 3)
	a := audit.New(net, svc, audit.Config{})
	a.Start()
	rng := rand.New(rand.NewSource(7))
	rot := func(nodes ...simnet.NodeID) {
		for _, n := range nodes {
			if _, ok := svc.CorruptRandom(n, rng); !ok {
				t.Fatalf("node %d held nothing", n)
			}
		}
	}
	k.RunUntil(5 * time.Minute)
	rot(0, 1)
	k.RunUntil(30 * time.Minute)
	before := a.Stats().Detections
	if before == 0 {
		t.Fatalf("no detection before the attach: %+v", a.Stats())
	}
	reg, tr := obs.NewRegistry(), obs.NewTracer(0)
	a.Instrument(reg, tr)
	rot(2, 3)
	k.RunUntil(60 * time.Minute)
	st := a.Stats()
	if st.Detections == before {
		t.Fatalf("no detection after the attach: %+v", st)
	}
	traced := int64(0)
	for _, e := range tr.Events() {
		if e.Layer == "audit" && e.Event == "detect" {
			traced++
		}
	}
	if traced != st.Detections-before {
		t.Fatalf("tracer saw %d detections, want the %d after the attach", traced, st.Detections-before)
	}

	key := obs.Key{Layer: "audit", Name: "detection_latency_ns"}
	alone := obs.NewRegistry()
	alone.HistogramSource(key.Layer, key.Name, &a.DetectionLatency)
	want := alone.Snapshot()
	var got []obs.Metric
	for _, m := range reg.Snapshot() {
		if m.Key == key {
			got = append(got, m)
		}
	}
	if len(got) != 1 || got[0].Count != st.Detections {
		t.Fatalf("dumped %s = %+v, want one histogram of %d detections", key.Name, got, st.Detections)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dumped %s (%+v) is not DetectionLatency (%+v)", key.Name, *got[0].Hist, *want[0].Hist)
	}
}

// TestStoresAfterStartAnswerPolls: a store that first holds a fragment
// after Start must answer polls and collect votes like one that existed
// before.  Stores appear two ways: the roots are archived a minute in,
// or a repair re-places a root's fragments onto nodes that held none.
// In a healthy world with no loss and a vote budget no tick exhausts,
// every poll reaches a live, honest holder, so every poll is answered,
// every answer agrees, and no tally is inconclusive.
func TestStoresAfterStartAnswerPolls(t *testing.T) {
	archiveRoots := func(t *testing.T, svc *archive.Service, fragments int) {
		for i := 0; i < 3; i++ {
			data := make([]byte, 1200)
			rand.New(rand.NewSource(int64(i))).Read(data)
			if _, err := svc.Archive(data, archive.Config{DataShards: 4, TotalFragments: fragments}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name string
		// before runs ahead of Start, after a minute past it; after
		// must materialise at least one store.
		before, after func(t *testing.T, svc *archive.Service)
	}{
		{"archived", func(*testing.T, *archive.Service) {}, func(t *testing.T, svc *archive.Service) {
			archiveRoots(t, svc, 16)
		}},
		{"repaired", func(t *testing.T, svc *archive.Service) {
			archiveRoots(t, svc, 8)
		}, func(t *testing.T, svc *archive.Service) {
			for _, root := range svc.Roots() {
				if err := svc.RepairRoot(root); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := sim.NewKernel(17)
			net := simnet.New(k, simnet.Config{BaseLatency: 10 * time.Millisecond})
			svc := archive.NewService(net, net.AddRandomNodes(16, 100, 4))
			c.before(t, svc)
			cfg := fastCfg()
			cfg.MaxVotesPerInterval = 64
			a := audit.New(net, svc, cfg)
			a.Start()
			a.Start() // no second handler: it would answer every poll twice
			stores := len(svc.StoreNodes())
			k.RunUntil(time.Minute + time.Second)
			c.after(t, svc)
			if len(svc.StoreNodes()) == stores {
				t.Fatalf("no store appeared after Start (%d stores)", stores)
			}
			k.RunUntil(time.Hour + 10*time.Second) // the last tick's votes are in
			st := a.Stats()
			if st.Polls == 0 {
				t.Fatalf("no polls: %+v", st)
			}
			if st.VotesServed != st.Polls || st.Agrees != st.Polls {
				t.Fatalf("%d polls, %d answered, %d agreed: %+v", st.Polls, st.VotesServed, st.Agrees, st)
			}
			if st.Inconclusive != 0 || st.Healthy == 0 {
				t.Fatalf("%d inconclusive and %d healthy tallies: %+v", st.Inconclusive, st.Healthy, st)
			}
		})
	}
}

func TestWithoutAuditorRotPersists(t *testing.T) {
	k, _, svc := auditWorld(t, 3)
	// Same world, no auditor: damage stays forever.
	k.RunUntil(5 * time.Minute)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		svc.CorruptRandom(simnet.NodeID(i), rng)
	}
	k.RunUntil(60 * time.Minute)
	if len(svc.DamagedRoots()) == 0 {
		t.Fatal("control run lost its damage records")
	}
	if svc.CountBadFragments() == 0 {
		t.Fatal("control run has no bad fragments")
	}
}

func TestReputationIsolatesByzantineStores(t *testing.T) {
	k, net, svc := auditWorld(t, 5)
	liars := []simnet.NodeID{1, 4}
	for _, l := range liars {
		svc.SetByzantine(l, true)
	}
	a := audit.New(net, svc, fastCfg())
	a.Start()
	k.RunUntil(90 * time.Minute)

	suspects := a.Suspected()
	want := map[simnet.NodeID]bool{1: true, 4: true}
	for _, s := range suspects {
		if !want[s] {
			t.Fatalf("honest node %d falsely suspected (suspects %v)", s, suspects)
		}
	}
	if len(suspects) != len(liars) {
		t.Fatalf("suspects = %v, want exactly %v", suspects, liars)
	}
	// Honest nodes keep full reputation.
	for _, id := range svc.StoreNodes() {
		if want[id] {
			continue
		}
		if a.Reputation(id) < 1 {
			t.Fatalf("honest node %d lost reputation: %v", id, a.Reputation(id))
		}
	}
}

func TestDisableReputationNeverSuspects(t *testing.T) {
	k, net, svc := auditWorld(t, 5)
	for _, l := range []simnet.NodeID{1, 4} {
		svc.SetByzantine(l, true)
	}
	cfg := fastCfg()
	cfg.DisableReputation = true
	a := audit.New(net, svc, cfg)
	a.Start()
	k.RunUntil(90 * time.Minute)
	if s := a.Suspected(); len(s) != 0 {
		t.Fatalf("reputation disabled but suspects exist: %v", s)
	}
}

func TestVoteBudgetBoundsReplies(t *testing.T) {
	k, net, svc := auditWorld(t, 9)
	cfg := fastCfg()
	cfg.MaxVotesPerInterval = 2
	a := audit.New(net, svc, cfg)
	a.Start()

	// Flood one holder with polls far beyond its budget.
	root := svc.Roots()[0]
	victim := svc.HoldersOf(root)[0]
	attacker := svc.HoldersOf(root)[1]
	k.RunUntil(time.Minute + time.Second)
	before := a.Stats().VotesServed
	for i := 0; i < 100; i++ {
		net.Send(attacker, victim, audit.KindPoll, audit.ForgePoll(root, attacker, uint64(1000+i)), 48)
	}
	k.RunFor(30 * time.Second) // within the same tick
	served := a.Stats().VotesServed - before
	if served > 2 {
		t.Fatalf("vote budget 2 but served %d this interval", served)
	}
	if a.Stats().VotesSuppressed < 90 {
		t.Fatalf("suppression did not absorb the flood: %+v", a.Stats())
	}
}

func TestDisableRateLimitAmplifies(t *testing.T) {
	k, net, svc := auditWorld(t, 9)
	cfg := fastCfg()
	cfg.MaxVotesPerInterval = 2
	cfg.DisableRateLimit = true
	a := audit.New(net, svc, cfg)
	a.Start()
	root := svc.Roots()[0]
	victim := svc.HoldersOf(root)[0]
	attacker := svc.HoldersOf(root)[1]
	k.RunUntil(time.Minute + time.Second)
	before := a.Stats().VotesServed
	for i := 0; i < 100; i++ {
		net.Send(attacker, victim, audit.KindPoll, audit.ForgePoll(root, attacker, uint64(1000+i)), 48)
	}
	k.RunFor(30 * time.Second)
	if served := a.Stats().VotesServed - before; served < 90 {
		t.Fatalf("rate limit disabled but only %d votes served", served)
	}
}

func TestBackoffSuppressesRepolls(t *testing.T) {
	// Partition the world so polls go unanswered: with backoff the poll
	// volume collapses; without it, every tick polls at full rate.
	pollsWith := pollsUnderPartition(t, false)
	pollsWithout := pollsUnderPartition(t, true)
	if pollsWith*2 >= pollsWithout {
		t.Fatalf("backoff did not reduce poll volume: with=%d without=%d", pollsWith, pollsWithout)
	}
}

func pollsUnderPartition(t *testing.T, disableBackoff bool) int64 {
	t.Helper()
	k, net, svc := auditWorld(t, 11)
	cfg := fastCfg()
	cfg.DisableBackoff = disableBackoff
	a := audit.New(net, svc, cfg)
	a.Start()
	// Every node alone: all polls die at the partition boundary.
	for _, id := range svc.StoreNodes() {
		net.SetPartition(id, int(id))
	}
	k.RunUntil(4 * time.Hour)
	st := a.Stats()
	if st.Inconclusive == 0 {
		t.Fatalf("partition produced no inconclusive polls (disableBackoff=%v)", disableBackoff)
	}
	return st.Polls
}

func TestAuditTrafficIsDeterministic(t *testing.T) {
	run := func() (audit.Stats, int64, int64) {
		k, net, svc := auditWorld(t, 13)
		a := audit.New(net, svc, fastCfg())
		a.Start()
		k.RunUntil(5 * time.Minute)
		rng := rand.New(rand.NewSource(3))
		svc.CorruptRandom(2, rng)
		k.RunUntil(2 * time.Hour)
		return a.Stats(), net.KindBytes(audit.KindPoll), net.KindBytes(audit.KindVote)
	}
	s1, p1, v1 := run()
	s2, p2, v2 := run()
	if s1 != s2 || p1 != p2 || v1 != v2 {
		t.Fatalf("same seed diverged: %+v/%d/%d vs %+v/%d/%d", s1, p1, v1, s2, p2, v2)
	}
	if p1 == 0 || v1 == 0 {
		t.Fatal("no audit traffic on the wire")
	}
}
