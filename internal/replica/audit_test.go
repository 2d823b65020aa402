package replica

import (
	"testing"
	"time"

	"oceanstore/internal/epidemic"
	"oceanstore/internal/object"
	"oceanstore/internal/simnet"
)

// tamperVersion flips one ciphertext byte — the minimal silent state
// corruption an untrusted server could apply.
func tamperVersion(v *object.Version) {
	if len(v.Blocks) > 0 && len(v.Blocks[0].CT) > 0 {
		v.Blocks[0].CT[0] ^= 0xFF
	} else {
		v.Size++
	}
}

// auditWorld commits a few updates with two secondaries attached, so
// digests have real state to summarise.
func auditWorld(t *testing.T, seed int64) (*world, []simnet.NodeID) {
	t.Helper()
	w := newWorld(t, seed, DefaultConfig())
	secs := []simnet.NodeID{10, 11}
	for _, n := range secs {
		if _, err := w.ring.AddSecondary(n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		u := w.appendUpdate(t, "entry\n")
		w.ring.Submit(w.client, u, 0, nil)
		w.k.RunFor(10 * time.Second)
	}
	w.k.RunFor(30 * time.Second) // let the tree pushes settle
	return w, secs
}

func TestDigestsAgreeAcrossHealthyReplicas(t *testing.T) {
	w, secs := auditWorld(t, 3)
	pd := w.ring.PrimaryDigest()
	if pd.Height == 0 {
		t.Fatal("primary committed nothing")
	}
	for _, n := range secs {
		sd, ok := w.ring.SecondaryDigest(n)
		if !ok {
			t.Fatalf("no digest for secondary %d", n)
		}
		if sd.Height != pd.Height {
			t.Fatalf("secondary %d height %d != primary %d", n, sd.Height, pd.Height)
		}
		if sd.Sum != pd.Sum {
			t.Fatalf("secondary %d digest differs from primary at equal height", n)
		}
	}
}

func TestTamperChangesDigestAndRepairRestoresIt(t *testing.T) {
	w, secs := auditWorld(t, 5)
	victim := secs[0]
	pd := w.ring.PrimaryDigest()

	sec, _ := w.ring.Secondary(victim)
	sec.Rep.TamperBase(tamperVersion)

	sd, _ := w.ring.SecondaryDigest(victim)
	if sd.Sum == pd.Sum {
		t.Fatal("tamper did not change the digest")
	}
	// Corruption must stay local: the other secondary and the primary
	// share Version pointers with the victim's pre-tamper state.
	other, _ := w.ring.SecondaryDigest(secs[1])
	if other.Sum != pd.Sum {
		t.Fatal("tampering one secondary corrupted a peer")
	}

	if err := w.ring.RepairSecondary(victim); err != nil {
		t.Fatal(err)
	}
	sd, _ = w.ring.SecondaryDigest(victim)
	if sd.Sum != pd.Sum || sd.Height != pd.Height {
		t.Fatal("repair did not restore the authoritative state")
	}
	// The repaired replica keeps working: commit another update through
	// the ring and verify the secondary follows.
	u := w.appendUpdate(t, "after-repair\n")
	w.ring.Submit(w.client, u, 0, nil)
	w.k.RunFor(30 * time.Second)
	sd, _ = w.ring.SecondaryDigest(victim)
	pd = w.ring.PrimaryDigest()
	if sd.Sum != pd.Sum {
		t.Fatal("repaired secondary diverged on the next commit")
	}
}

// TestCloneIsIndependent: a replica joined from a secondary's
// checkpoint shares only immutable committed versions with it, so
// tampering the source leaves the joined replica untouched.
func TestCloneIsIndependent(t *testing.T) {
	w, secs := auditWorld(t, 7)
	sec, _ := w.ring.Secondary(secs[0])
	c := epidemic.NewAt(sec.Rep.Checkpoint())
	if c.CommittedLen() != sec.Rep.CommittedLen() {
		t.Fatal("checkpoint join lost committed history")
	}
	before := digestOf(c)
	sec.Rep.TamperBase(tamperVersion)
	if digestOf(c) != before {
		t.Fatal("tampering the source mutated the joined replica")
	}
	if digestOf(sec.Rep) == before {
		t.Fatal("tamper was a no-op")
	}
}
