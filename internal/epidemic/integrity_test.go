package epidemic

import (
	"testing"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
)

func TestCloneIsDeepAndEqual(t *testing.T) {
	k := testKey(40)
	v0 := object.NewObject([]byte("base."), 8, k)
	src := New(v0)
	c1 := guid.FromData([]byte("c1"))
	uA := appendUpdate(t, v0, k, "A", c1, 1, 10)
	if out := src.Commit(uA, 1); !out.Committed {
		t.Fatalf("commit failed: %+v", out)
	}
	uB := appendUpdate(t, src.CommittedState(), k, "B", c1, 2, 20)
	if !src.AddTentative(uB) {
		t.Fatal("add tentative failed")
	}

	cl := Clone(src)
	if got := read(t, cl.CommittedState(), k); got != "base.A" {
		t.Fatalf("clone committed state %q", got)
	}
	if got := read(t, cl.TentativeState(30), k); got != "base.AB" {
		t.Fatalf("clone tentative state %q", got)
	}
	if cl.CommittedLen() != src.CommittedLen() || len(cl.tentative) != len(src.tentative) {
		t.Fatal("clone log lengths differ from source")
	}
	if !cl.Seen(uA.ID()) || !cl.Seen(uB.ID()) {
		t.Fatal("clone lost seen-set entries")
	}
	if len(cl.Log.Entries()) != len(src.Log.Entries()) {
		t.Fatal("clone lost commit-log entries")
	}

	// Independence: committing into the clone must not leak into src.
	uC := appendUpdate(t, cl.CommittedState(), k, "C", c1, 3, 30)
	cl.Commit(uC, 2)
	if src.Seen(uC.ID()) || src.CommittedLen() != 1 {
		t.Fatal("mutating the clone reached the source replica")
	}
	if got := read(t, src.CommittedState(), k); got != "base.A" {
		t.Fatalf("source corrupted by clone mutation: %q", got)
	}
}

func TestTamperBaseIsLocalAndVisible(t *testing.T) {
	k := testKey(41)
	v0 := object.NewObject([]byte("payload"), 8, k)
	honest, rogue := New(v0), New(v0) // share the committed *Version

	rogue.TamperBase(func(v *object.Version) {
		v.Blocks[0].CT[0] ^= 0xFF
	})

	// The rogue's committed read must now fail verification or differ;
	// an undetectable tamper would mean reads don't check anything.
	if b, err := object.NewView(rogue.CommittedState(), k).Read(); err == nil && string(b) == "payload" {
		t.Fatal("tampered replica still serves clean bytes")
	}
	// The shared honest replica must be untouched: TamperBase clones
	// before mutating so corruption cannot teleport between servers.
	if got := read(t, honest.CommittedState(), k); got != "payload" {
		t.Fatalf("tamper leaked into honest peer: %q", got)
	}
}

func TestAdoptFromRepairsInPlace(t *testing.T) {
	k := testKey(42)
	v0 := object.NewObject([]byte("state."), 8, k)
	goodRep, badRep := New(v0), New(v0)
	c1 := guid.FromData([]byte("c1"))
	u := appendUpdate(t, v0, k, "X", c1, 1, 10)
	goodRep.Commit(u, 1)
	badRep.Commit(u, 1)

	badRep.TamperBase(func(v *object.Version) {
		v.Blocks[0].CT[0] ^= 0xFF
	})

	ptr := badRep // handlers and ring tables hold this pointer
	badRep.AdoptFrom(goodRep)
	if ptr != badRep {
		t.Fatal("AdoptFrom must repair in place")
	}
	if got := read(t, badRep.CommittedState(), k); got != "state.X" {
		t.Fatalf("repaired replica reads %q", got)
	}
	if badRep.CommittedLen() != goodRep.CommittedLen() || !badRep.Seen(u.ID()) {
		t.Fatal("repair did not restore log state")
	}
	// The repaired replica keeps working: it can commit fresh updates.
	u2 := appendUpdate(t, badRep.CommittedState(), k, "Y", c1, 2, 20)
	if out := badRep.Commit(u2, 2); !out.Committed {
		t.Fatalf("post-repair commit failed: %+v", out)
	}
	if got := read(t, badRep.CommittedState(), k); got != "state.XY" {
		t.Fatalf("post-repair state %q", got)
	}
}
