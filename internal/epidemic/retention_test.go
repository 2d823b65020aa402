package epidemic

import (
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/obs"
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
		if out := r.Commit(u, now+time.Duration(i)); !out.Committed {
			t.Fatalf("commit %d aborted", i)
		}
	}
}

func TestTentativeExpiry(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	r := New(v0)
	reg := obs.NewRegistry()
	r.Instrument(NewFamilies(reg), 3)
	r.SetRetention(Retention{TentativeExpire: 100})
	u := appendUpdate(t, v0, k, "x", guid.FromData([]byte("c1")), 1, 10)
	if !r.AddTentative(u) {
		t.Fatal("add failed")
	}
	if got := read(t, r.TentativeState(50), k); got != "base.x" {
		t.Fatalf("before expiry: %q", got)
	}
	if r.TentativeLen() != 1 {
		t.Fatalf("tentative len %d", r.TentativeLen())
	}
	// Past the bound the update is dropped and forgotten: the same ID
	// is accepted again (seen was cleared with it).
	if got := read(t, r.TentativeState(200), k); got != "base." {
		t.Fatalf("after expiry: %q", got)
	}
	if r.TentativeLen() != 0 {
		t.Fatalf("tentative len %d after expiry", r.TentativeLen())
	}
	if got := reg.CounterValue(3, "epidemic", "expired"); got != 1 {
		t.Fatalf("expired counter %d, want 1", got)
	}
	if !r.AddTentative(u) {
		t.Fatal("expired ID should be re-addable")
	}
	if len(r.Tentative()) != 1 {
		t.Fatal("Tentative() should list the re-added update")
	}
}

func TestCommitWindowPrunes(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	r := New(v0)
	r.SetRetention(Retention{CommitWindow: 8})
	const total = 150 // past 2×dedupWindow (128) so the dedup table prunes too
	commitChain(t, r, total, 1, 1000)
	if r.CommittedLen() != total {
		t.Fatalf("CommittedLen %d, want %d", r.CommittedLen(), total)
	}
	if len(r.committed) >= 2*8 {
		t.Fatalf("retained committed window %d not pruned", len(r.committed))
	}
	if len(r.dedupQ) >= 2*r.ret.dedupWindow() {
		t.Fatalf("dedupQ %d not pruned", len(r.dedupQ))
	}
	if len(r.known) != len(r.dedupQ) {
		t.Fatalf("dedup table %d out of step with queue %d", len(r.known), len(r.dedupQ))
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
	a.SetRetention(Retention{CommitWindow: 4})
	b := New(v0)
	reg := obs.NewRegistry()
	b.Instrument(NewFamilies(reg), 9)
	commitChain(t, a, 40, 1, 1000)
	if len(a.committed) >= 40 {
		t.Fatal("test premise: a must have pruned its window")
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
	if got := reg.CounterValue(9, "epidemic", "checkpoints"); got != 1 {
		t.Fatalf("checkpoints counter %d, want 1", got)
	}
	if !b.Dominates(map[guid.GUID]uint64{}) {
		t.Fatal("b should dominate the empty vector")
	}
	// Within-window lag still syncs by replay, not checkpoint.
	commitChain(t, a, 2, 100, 3000)
	if moved := AntiEntropy(a, b, 4000); moved != 2 {
		t.Fatalf("replay moved %d, want 2", moved)
	}
}

func TestAdoptCheckpointIgnoresStale(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	r := New(v0)
	commitChain(t, r, 5, 1, 1000)
	before := read(t, r.CommittedState(), k)
	// A checkpoint at or behind the replica's own progress is a no-op.
	r.AdoptCheckpoint(object.NewObject([]byte("bogus"), 8, k), 5, nil)
	if r.CommittedLen() != 5 || read(t, r.CommittedState(), k) != before {
		t.Fatal("stale checkpoint was adopted")
	}
}

func TestNewAtJoinsAtCheckpoint(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	a := New(v0)
	commitChain(t, a, 6, 1, 1000)
	joiner := NewAt(a.CommittedState(), a.CommittedLen(), a.VersionVector())
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
