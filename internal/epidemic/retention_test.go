package epidemic

import (
	"runtime"
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/update"
)

// commitChain commits n sequential appends to r and returns the key's
// final expected content suffix length.  Each update builds on the
// replica's current committed state, as the primary would.
func commitChain(t *testing.T, r *Replica, n int, startSeq uint64, now time.Duration) {
	t.Helper()
	key := testKey(77)
	client := guid.FromData([]byte("chain-client"))
	for i := 0; i < n; i++ {
		u := appendUpdate(t, r.CommittedState(), key, "x", client, startSeq+uint64(i), now+time.Duration(i))
		if out := r.Commit(u, r.CommittedLen(), now+time.Duration(i)); !out.Committed {
			t.Fatalf("commit %d aborted", i)
		}
	}
}

func TestTentativeExpiry(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	r := New(v0)
	var counts Counts
	r.Instrument(&counts)
	u := appendUpdate(t, v0, k, "x", guid.FromData([]byte("c1")), 1, 10)
	if !r.AddTentative(u) {
		t.Fatal("add failed")
	}
	if got := read(t, r.TentativeState(10+TentativeExpire), k); got != "base.x" {
		t.Fatalf("at the bound: %q", got)
	}
	if len(r.tentative) != 1 {
		t.Fatalf("tentative len %d", len(r.tentative))
	}
	// Past the bound the update is dropped and forgotten: the same ID
	// is accepted again (seen was cleared with it).
	if got := read(t, r.TentativeState(11+TentativeExpire), k); got != "base." {
		t.Fatalf("after expiry: %q", got)
	}
	if len(r.tentative) != 0 {
		t.Fatalf("tentative len %d after expiry", len(r.tentative))
	}
	if got := counts[Expired]; got != 1 {
		t.Fatalf("expired counter %d, want 1", got)
	}
	if !r.AddTentative(u) {
		t.Fatal("expired ID should be re-addable")
	}
	if len(r.tentative) != 1 {
		t.Fatal("the tentative set should hold the re-added update")
	}
}

func TestCommitWindowPrunes(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	r := New(v0)
	const total = 2*Window + 88 // trimmed once, at 2×Window, back to Window
	commitChain(t, r, total, 1, 1000)
	if r.CommittedLen() != total {
		t.Fatalf("CommittedLen %d, want %d", r.CommittedLen(), total)
	}
	if r.Log.Start() != Window || len(r.Log.Entries()) != Window+88 {
		t.Fatalf("log window [%d,%d), want [%d,%d)", r.Log.Start(), r.Log.Len(), Window, total)
	}
	if n := len(known(t, r)); n != Window+88 {
		t.Fatalf("dedup index %d out of step with the log window %d", n, Window+88)
	}
	// The applied state still reflects every commit, retained or not.
	if got := read(t, r.CommittedState(), k); got != "base."+repeat("x", total) {
		t.Fatalf("committed state lost updates: %d bytes", len(got))
	}
}

func repeat(s string, n int) string {
	out := make([]byte, 0, n*len(s))
	for i := 0; i < n; i++ {
		out = append(out, s...)
	}
	return string(out)
}

func TestAntiEntropyCheckpointTransfer(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	a := New(v0)
	b := New(v0)
	var counts Counts
	b.Instrument(&counts)
	commitChain(t, a, 2*Window, 1, 1000)
	if a.Log.Start() == 0 {
		t.Fatal("test premise: a must have trimmed its window")
	}
	// b lags by more than a retains: one checkpoint move fast-forwards.
	moved := AntiEntropy(a, b, 2000)
	if moved != 1 {
		t.Fatalf("moved %d, want 1 checkpoint", moved)
	}
	if b.CommittedLen() != a.CommittedLen() {
		t.Fatalf("b at %d, a at %d", b.CommittedLen(), a.CommittedLen())
	}
	if read(t, b.CommittedState(), k) != read(t, a.CommittedState(), k) {
		t.Fatal("checkpoint state differs")
	}
	if got := counts[Checkpoints]; got != 1 {
		t.Fatalf("checkpoints counter %d, want 1", got)
	}
	// Within-window lag still syncs by replay, not checkpoint.
	commitChain(t, a, 2, 100, 3000)
	if moved := AntiEntropy(a, b, 4000); moved != 2 {
		t.Fatalf("replay moved %d, want 2", moved)
	}
}

// TestCatchUpIgnoresStale: a checkpoint at or behind the replica's own
// progress moves nothing, whatever its base says.
func TestCatchUpIgnoresStale(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	r := New(v0)
	commitChain(t, r, 5, 1, 1000)
	before := read(t, r.CommittedState(), k)
	bogus := object.NewObject([]byte("bogus"), 8, k)
	for _, start := range []int{5, 3} {
		if moved := r.CatchUp(Checkpoint{Base: bogus, Start: start}, 2000); moved != 0 {
			t.Fatalf("stale checkpoint at %d moved %d", start, moved)
		}
		if r.CommittedLen() != 5 || read(t, r.CommittedState(), k) != before {
			t.Fatalf("stale checkpoint at %d was adopted", start)
		}
	}
}

func TestNewAtJoinsAtCheckpoint(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	a := New(v0)
	commitChain(t, a, 6, 1, 1000)
	joiner := NewAt(a.Checkpoint())
	if joiner.CommittedLen() != a.CommittedLen() {
		t.Fatalf("joiner at %d, want %d", joiner.CommittedLen(), a.CommittedLen())
	}
	if read(t, joiner.CommittedState(), k) != read(t, a.CommittedState(), k) {
		t.Fatal("joiner state differs")
	}
	// Nothing to move between them now.
	if moved := AntiEntropy(a, joiner, 2000); moved != 0 {
		t.Fatalf("moved %d between converged replicas", moved)
	}
}

// TestLatePushBelowTheWindow: a push that was in flight while a
// replica adopted a checkpoint can name a position the adopted window
// no longer covers.  Its ID has left the dedup table with the window,
// but its position is below the log end: a duplicate, answered with no
// outcome because the window no longer holds one, and never applied a
// second time.
func TestLatePushBelowTheWindow(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	src := New(v0)
	first := appendUpdate(t, v0, k, "x", guid.FromData([]byte("early")), 1, 999)
	src.Commit(first, 0, 999)
	commitChain(t, src, 2*Window-1, 1, 1000)
	joiner := NewAt(src.Checkpoint())
	var counts Counts
	joiner.Instrument(&counts)
	if joiner.Log.Start() == 0 || joiner.Seen(first.ID()) {
		t.Fatal("setup: the joined window still covers the first commit")
	}
	before := read(t, joiner.CommittedState(), k)
	if got := joiner.Commit(first, 0, 3000); got != (update.Outcome{}) {
		t.Fatalf("a duplicate below the window answered %+v", got)
	}
	if joiner.CommittedLen() != src.CommittedLen() || read(t, joiner.CommittedState(), k) != before {
		t.Fatal("a duplicate below the window was applied")
	}
	if got := counts[DupCommits]; got != 1 {
		t.Fatalf("dup_commits = %d, want 1", got)
	}
}

// TestHeapPerReplica pins the memory model for who wrote a replica's
// history: a replica that committed 64 updates from 64 distinct clients
// keeps no more live heap than one that committed 64 updates from one
// client, give or take 64 B.  Both worlds share one set of updates, so
// the difference is what the replica keeps per client it has heard
// from.
func TestHeapPerReplica(t *testing.T) {
	const replicas, commits, bound = 2000, 64, 64
	v0 := object.NewObject(nil, 8, testKey(5))
	live := func(clients int) int64 {
		us := make([]*update.Update, commits)
		for i := range us {
			c := i % clients
			us[i] = update.NewUnconditional(guid.Zero, nil)
			us[i].ClientID = guid.FromData([]byte{byte(c)})
			us[i].Seq = uint64(i/clients + 1)
		}
		reps := make([]*Replica, replicas)
		for r := range reps {
			reps[r] = New(v0)
			for pos, u := range us {
				if out := reps[r].Commit(u, pos, 0); !out.Committed {
					t.Fatalf("commit %d aborted", pos)
				}
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(reps)
		return int64(ms.HeapAlloc)
	}
	one, many := live(1), live(commits)
	perReplica := float64(many-one) / replicas
	t.Logf("live heap %.2f MB from 1 client, %.2f MB from %d: %+.0f B/replica", float64(one)/(1<<20), float64(many)/(1<<20), commits, perReplica)
	if perReplica > bound {
		t.Fatalf("%+.0f B of live heap per replica for %d clients over 1, bound %d", perReplica, commits, bound)
	}
}
