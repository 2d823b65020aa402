package epidemic

import (
	"testing"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/obs"
	"oceanstore/internal/update"
)

// TestDuplicateCommitReturnsLoggedOutcome: the same serialised update
// reaches a secondary twice — an anti-entropy exchange with a peer that
// is ahead delivers it, then the dissemination tree's push of it lands —
// and the second arrival is answered from the dedup table with the
// outcome the first one logged, commit or abort, without touching state
// or log.
func TestDuplicateCommitReturnsLoggedOutcome(t *testing.T) {
	k := testKey(50)
	v0 := object.NewObject([]byte("base."), 8, k)
	c := guid.FromData([]byte("c"))
	good := appendUpdate(t, v0, k, "A", c, 1, 10)
	ed, _ := object.NewEditor(v0, k)
	stale := update.NewVersionGuarded(guid.Zero, 99, update.BlockOps(ed.Append([]byte("x"))))
	stale.ClientID, stale.Seq, stale.Timestamp = c, 2, 20
	serialised := []*update.Update{good, stale}

	primary, sec := New(v0), New(v0)
	reg := obs.NewRegistry()
	sec.Instrument(NewFamilies(reg), 4)
	sec.AddTentative(good) // the client's Fig-5a copy got there first
	want := make([]update.Outcome, len(serialised))
	for i, u := range serialised {
		want[i] = primary.Commit(u, 30)
	}
	if !want[0].Committed || want[1].Committed {
		t.Fatalf("setup: outcomes %+v, want one commit and one abort", want)
	}
	if moved := AntiEntropy(primary, sec, 40); moved != len(serialised) {
		t.Fatalf("anti-entropy moved %d updates, want %d", moved, len(serialised))
	}
	for i, u := range serialised { // the tree push, late
		if got := sec.Commit(u, 50); got != want[i] {
			t.Fatalf("duplicate commit %d answered %+v, primary logged %+v", i, got, want[i])
		}
	}
	if sec.Log.Len() != 2 || sec.CommittedLen() != 2 || sec.TentativeLen() != 0 {
		t.Fatalf("duplicates changed state: log %d, committed %d, tentative %d",
			sec.Log.Len(), sec.CommittedLen(), sec.TentativeLen())
	}
	if got := reg.CounterValue(4, "epidemic", "dup_commits"); got != 2 {
		t.Fatalf("dup_commits = %d, want 2", got)
	}
	if got := read(t, sec.CommittedState(), k); got != "base.A" {
		t.Fatalf("committed state %q", got)
	}
}

// TestDedupTableTracksItsWindows: with retention on, the one table
// holds exactly the IDs in the dedup queue plus the live tentative
// updates — through commits, pruning, and expiry.
func TestDedupTableTracksItsWindows(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	r := New(v0)
	r.SetRetention(Retention{CommitWindow: 8, TentativeExpire: 1000})
	other := guid.FromData([]byte("other"))
	inStep := func(when string) {
		t.Helper()
		if len(r.known) != len(r.dedupQ)+len(r.tentative) {
			t.Fatalf("%s: table holds %d IDs, dedupQ %d + tentative %d",
				when, len(r.known), len(r.dedupQ), len(r.tentative))
		}
		for _, id := range r.dedupQ {
			if !r.known[id].committed {
				t.Fatalf("%s: queued ID %v not marked committed", when, id)
			}
		}
		for _, u := range r.tentative {
			if d, ok := r.known[u.ID()]; !ok || d.committed {
				t.Fatalf("%s: tentative ID %v is %+v (present %v)", when, u.ID(), d, ok)
			}
		}
	}
	for round := 0; round < 6; round++ {
		base := uint64(round * 50)
		// Three tentative updates per round that nobody ever commits.
		for j := uint64(0); j < 3; j++ {
			r.AddTentative(appendUpdate(t, r.CommittedState(), k, "t", other, base+j+1, 0))
		}
		inStep("after tentative adds")
		commitChain(t, r, 50, base+1, 10) // crosses the 2×dedupWindow prune trigger
		inStep("after commits")
	}
	if len(r.dedupQ) >= 2*r.ret.dedupWindow() {
		t.Fatalf("dedupQ %d never pruned", len(r.dedupQ))
	}
	r.TentativeState(5000) // every tentative update is past its expiry
	if r.TentativeLen() != 0 {
		t.Fatalf("%d tentative updates survived expiry", r.TentativeLen())
	}
	inStep("after expiry")
}

// TestCloneAndAdoptCopyDedupTable: a cloned or repaired replica answers
// duplicates exactly as its source does, and owns its own table.
func TestCloneAndAdoptCopyDedupTable(t *testing.T) {
	k := testKey(51)
	v0 := object.NewObject([]byte("base."), 8, k)
	c := guid.FromData([]byte("c"))
	src := New(v0)
	uA := appendUpdate(t, v0, k, "A", c, 1, 10)
	want := src.Commit(uA, 1)
	uB := appendUpdate(t, src.CommittedState(), k, "B", c, 2, 20)
	src.AddTentative(uB)

	cl := Clone(src)
	repaired := New(v0)
	repaired.AdoptFrom(src)
	for name, r := range map[string]*Replica{"clone": cl, "repaired": repaired} {
		if len(r.known) != 2 || !r.known[uA.ID()].committed || r.known[uB.ID()].committed {
			t.Fatalf("%s: dedup table %+v", name, r.known)
		}
		if got := r.Commit(uA, 50); got != want {
			t.Fatalf("%s: duplicate commit answered %+v, want %+v", name, got, want)
		}
		if r.AddTentative(uB) {
			t.Fatalf("%s: forgot a tentative update it holds", name)
		}
		if r.CommittedLen() != 1 {
			t.Fatalf("%s: duplicate commit applied again", name)
		}
	}
	cl.Commit(uB, 60)
	if src.known[uB.ID()].committed || repaired.known[uB.ID()].committed {
		t.Fatal("tables are shared between a replica and its clone")
	}
}
