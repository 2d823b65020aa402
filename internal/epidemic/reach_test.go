package epidemic

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/update"
)

// chain builds n appends from one client, each assuming the state the
// ones before it commit to from v0, as the primary tier would order
// them.  The caller holds the updates.
func chain(t *testing.T, v0 *object.Version, k crypt.BlockKey, n int) []*update.Update {
	t.Helper()
	scratch := New(v0)
	client := guid.FromData([]byte("reach-client"))
	us := make([]*update.Update, n)
	for i := range us {
		us[i] = appendUpdate(t, scratch.CommittedState(), k, "x", client, uint64(i+1), time.Duration(i))
		scratch.Commit(us[i], i, time.Duration(i))
	}
	return us
}

// TestUpdatesLeaveTheReach: a replica holds the updates of its last
// Reach log positions and no others; older entries keep their ID, and
// an update no replica holds any more is garbage.
func TestUpdatesLeaveTheReach(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	r := New(v0)
	const n = 3 * Reach
	ptrs := make([]weak.Pointer[update.Update], n)
	ids := make([]update.UpdateID, n)
	func() {
		for pos, u := range chain(t, v0, k, n) {
			ptrs[pos], ids[pos] = weak.Make(u), u.ID()
			r.Commit(u, pos, time.Duration(pos))
		}
	}()
	runtime.GC()
	c := r.view()
	for pos := 0; pos < n; pos++ {
		held := pos >= n-Reach
		if got := c.Update(pos); (got != nil) != held || held && got.ID() != ids[pos] {
			t.Fatalf("position %d of %d: update %v, want one only within the last %d", pos, n, got, Reach)
		}
		if live := ptrs[pos].Value() != nil; live != held {
			t.Fatalf("position %d of %d: update live %v after a GC, want %v", pos, n, live, held)
		}
		if got := r.Log.At(pos).ID(); got != ids[pos] {
			t.Fatalf("position %d logs %v, want %v", pos, got, ids[pos])
		}
	}
	if got, want := c.ReplayFrom(), n-Reach; got != want {
		t.Fatalf("a catch-up replays from length %d, want %d", got, want)
	}
}

// TestCatchUpPastTheReachAdopts: a replica that needs an update its
// source no longer holds adopts the source's checkpoint and ends in the
// source's state, holding what the source holds; one within the reach
// replays.
func TestCatchUpPastTheReachAdopts(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	const n = 40
	us := chain(t, v0, k, n)
	src, near, far := New(v0), New(v0), New(v0)
	var nearCounts, farCounts Counts
	near.Instrument(&nearCounts)
	far.Instrument(&farCounts)
	for pos, u := range us {
		src.Commit(u, pos, 0)
		if pos < n-Reach {
			near.Commit(u, pos, 0)
		}
		if pos < n-Reach-1 {
			far.Commit(u, pos, 0)
		}
	}
	if got := near.CatchUp(src.view(), time.Second); got != Reach || nearCounts[Checkpoints] != 0 || nearCounts[Commits] != n {
		t.Fatalf("%d behind: moved %d, %d checkpoints, %d commits; want a replay of %d", Reach, got, nearCounts[Checkpoints], nearCounts[Commits], Reach)
	}
	if got := far.CatchUp(src.view(), time.Second); got != 1 || farCounts[Checkpoints] != 1 {
		t.Fatalf("%d behind: moved %d with %d checkpoints, want one adoption", Reach+1, got, farCounts[Checkpoints])
	}
	want := read(t, src.CommittedState(), k)
	for name, r := range map[string]*Replica{"replayed": near, "adopted": far} {
		if r.CommittedLen() != n || !r.PrefixOf(src) || !src.PrefixOf(r) || read(t, r.CommittedState(), k) != want {
			t.Fatalf("%s: length %d, state %q; source %d, %q", name, r.CommittedLen(), read(t, r.CommittedState(), k), n, want)
		}
		for pos := 0; pos < n; pos++ {
			if got := r.view().Update(pos); got != src.view().Update(pos) {
				t.Fatalf("%s: position %d holds %v, the source %v", name, pos, got, src.view().Update(pos))
			}
		}
	}
}

// TestStrippedEntriesStillAnswer: past the reach an entry has no
// update, but what reads only its ID or outcome still works.  A commit
// that arrives again is answered with its logged outcome, an abort's
// included; a late tentative copy is recognised as seen; and PrefixOf
// still tells logs apart by the IDs there.
func TestStrippedEntriesStillAnswer(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	ed, err := object.NewEditor(v0, k)
	if err != nil {
		t.Fatal(err)
	}
	abort := update.NewVersionGuarded(guid.Zero, 99, update.BlockOps(ed.Append([]byte("never"))))
	abort.ClientID, abort.Seq = guid.FromData([]byte("aborting-client")), 1
	r, other := New(v0), New(v0)
	var counts Counts
	r.Instrument(&counts)
	logged := r.Commit(abort, 0, 0)
	other.Commit(abort, 0, 0)
	us := chain(t, v0, k, 2*Reach)
	for i, u := range us {
		r.Commit(u, i+1, 0)
	}
	if logged.Committed || r.view().Update(0) != nil || r.view().Update(1) != nil {
		t.Fatalf("setup: abort logged %+v; positions 0 and 1 still hold updates", logged)
	}
	if got := r.Commit(abort, 0, time.Second); got != logged || counts[DupCommits] != 1 {
		t.Fatalf("a stripped abort arriving again was answered %+v (%d duplicates), logged %+v", got, counts[DupCommits], logged)
	}
	if got := r.Commit(us[0], 1, time.Second); !got.Committed || got != r.Log.At(1).Outcome || counts[DupCommits] != 2 {
		t.Fatalf("a stripped commit arriving again was answered %+v, logged %+v", got, r.Log.At(1).Outcome)
	}
	if r.CommittedLen() != 2*Reach+1 {
		t.Fatalf("duplicates moved the log to %d", r.CommittedLen())
	}
	if !r.Seen(abort.ID()) || r.AddTentative(abort) || r.AddTentative(us[0]) || len(r.tentative) != 0 {
		t.Fatalf("late tentative copies of stripped commits were taken: %d tentative", len(r.tentative))
	}
	// other logs the same IDs except at position 3, far past the reach.
	odd := appendUpdate(t, v0, k, "y", guid.FromData([]byte("odd-client")), 1, 0)
	for i, u := range us {
		if i+1 == 3 {
			u = odd
		}
		other.Commit(u, i+1, 0)
	}
	if other.PrefixOf(r) || r.PrefixOf(other) {
		t.Fatal("logs that differ past the reach compare as prefixes")
	}
	if r.Checkpoint().ReplayFrom() != r.CommittedLen()-Reach || !NewAt(r.Checkpoint()).PrefixOf(r) {
		t.Fatal("a checkpoint's copy is not a prefix of its source")
	}
}
