package audit_test

import (
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/audit"
	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/obs"
	"oceanstore/internal/replica"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

// ringWorld stands up one object ring with committed history and a few
// secondaries.
func ringWorld(t *testing.T, seed int64) (*sim.Kernel, *simnet.Network, *replica.Ring, []simnet.NodeID) {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{BaseLatency: 20 * time.Millisecond})
	nodes := net.AddRandomNodes(24, 30, 4)
	arch := archive.NewService(net, nodes[4:20])
	key := crypt.NewBlockKey(rand.New(rand.NewSource(seed)))
	v0 := object.NewObject([]byte("base."), 64, key)
	obj := guid.FromData([]byte("audited-object"))
	ring, err := replica.NewRing(net, []simnet.NodeID{0, 1, 2, 3}, v0, obj, arch, replica.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	secs := []simnet.NodeID{10, 11, 12}
	for _, n := range secs {
		if _, err := ring.AddSecondary(n); err != nil {
			t.Fatal(err)
		}
	}
	clientID := guid.FromData([]byte("client"))
	base := ring.CommittedVersion()
	for i := 0; i < 3; i++ {
		ed, err := object.NewEditor(base, key)
		if err != nil {
			t.Fatal(err)
		}
		u := update.NewUnconditional(obj, update.BlockOps(ed.Append([]byte("entry\n"))))
		u.ClientID = clientID
		u.Seq = uint64(i + 1)
		u.Timestamp = k.Now()
		ring.Submit(23, u, 0, nil)
		k.RunFor(10 * time.Second)
		base = ring.CommittedVersion()
	}
	k.RunFor(30 * time.Second)
	return k, net, ring, secs
}

func TestReplicaAuditorRepairsTamperedSecondary(t *testing.T) {
	k, net, ring, secs := ringWorld(t, 3)
	ra := audit.NewReplicaAuditor(net, audit.Config{Interval: time.Minute}, ring)
	reg := obs.NewRegistry()
	ra.Instrument(reg)
	ra.Start()

	victim := secs[1]
	sec, _ := ring.Secondary(victim)
	sec.Rep.TamperBase(func(v *object.Version) {
		if len(v.Blocks) > 0 && len(v.Blocks[0].CT) > 0 {
			v.Blocks[0].CT[0] ^= 0xFF
		}
	})
	pd := ring.PrimaryDigest()
	if sd, _ := ring.SecondaryDigest(victim); sd.Sum == pd.Sum {
		t.Fatal("tamper did not change the digest")
	}

	k.RunFor(10 * time.Minute)
	st := ra.Stats()
	if st.Detections == 0 || st.Repairs == 0 {
		t.Fatalf("tamper not caught: %+v", st)
	}
	if sd, _ := ring.SecondaryDigest(victim); sd.Sum != pd.Sum {
		t.Fatal("secondary still corrupt after audit repair")
	}
	for name, want := range map[string]int64{"replica_checks": st.Checks, "replica_detections": st.Detections, "replica_repairs": st.Repairs} {
		if got := reg.CounterValue(obs.NodeWide, "audit", name); got != want {
			t.Fatalf("audit/%s = %d, Stats say %d", name, got, want)
		}
	}
}

func TestReplicaAuditorQuietWhenHealthy(t *testing.T) {
	k, net, ring, _ := ringWorld(t, 5)
	ra := audit.NewReplicaAuditor(net, audit.Config{Interval: time.Minute}, ring)
	ra.Start()
	k.RunFor(10 * time.Minute)
	st := ra.Stats()
	if st.Checks == 0 {
		t.Fatal("auditor never checked anything")
	}
	if st.Detections != 0 || st.Repairs != 0 {
		t.Fatalf("false alarms on healthy replicas: %+v", st)
	}
}

func TestWithoutReplicaAuditorTamperPersists(t *testing.T) {
	k, _, ring, secs := ringWorld(t, 3)
	victim := secs[1]
	sec, _ := ring.Secondary(victim)
	sec.Rep.TamperBase(func(v *object.Version) {
		if len(v.Blocks) > 0 && len(v.Blocks[0].CT) > 0 {
			v.Blocks[0].CT[0] ^= 0xFF
		}
	})
	k.RunFor(10 * time.Minute)
	pd := ring.PrimaryDigest()
	if sd, _ := ring.SecondaryDigest(victim); sd.Sum == pd.Sum {
		t.Fatal("corruption healed itself without an auditor")
	}
}
