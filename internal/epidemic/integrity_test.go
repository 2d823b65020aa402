package epidemic

import (
	"testing"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
)

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

// TestAdoptFromRepairsInPlace: the audit's repair adopts a good
// replica's checkpoint into the corrupted one in place, so every
// handler and ring table holding the pointer, and the observability
// hookup, keep working after it.
func TestAdoptFromRepairsInPlace(t *testing.T) {
	k := testKey(42)
	v0 := object.NewObject([]byte("state."), 8, k)
	goodRep, badRep := New(v0), New(v0)
	var counts Counts
	badRep.Instrument(&counts)
	c1 := guid.FromData([]byte("c1"))
	u := appendUpdate(t, v0, k, "X", c1, 1, 10)
	goodRep.Commit(u, 0, 1)
	badRep.Commit(u, 0, 1)

	badRep.TamperBase(func(v *object.Version) {
		v.Blocks[0].CT[0] ^= 0xFF
	})

	held := badRep // handlers and ring tables hold this pointer
	badRep.Adopt(goodRep.Checkpoint())
	if got := read(t, held.CommittedState(), k); got != "state.X" {
		t.Fatalf("repaired replica reads %q", got)
	}
	if held.CommittedLen() != goodRep.CommittedLen() || !held.Seen(u.ID()) {
		t.Fatal("repair did not restore log state")
	}
	// The repaired replica keeps working: it can commit fresh updates,
	// and counts them where it counted before the repair.
	u2 := appendUpdate(t, held.CommittedState(), k, "Y", c1, 2, 20)
	if out := held.Commit(u2, 1, 2); !out.Committed {
		t.Fatalf("post-repair commit failed: %+v", out)
	}
	if got := read(t, held.CommittedState(), k); got != "state.XY" {
		t.Fatalf("post-repair state %q", got)
	}
	if got := counts[Commits]; got != 2 {
		t.Fatalf("commits counted %d, want 2 (one each side of the repair)", got)
	}
}
