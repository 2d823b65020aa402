package epidemic

import (
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/update"
)

func testKey(seed int64) crypt.BlockKey {
	return crypt.NewBlockKey(rand.New(rand.NewSource(seed)))
}

// appendUpdate builds an unconditional append of payload assuming base.
func appendUpdate(t *testing.T, base *object.Version, k crypt.BlockKey, payload string, client guid.GUID, seq uint64, ts time.Duration) *update.Update {
	t.Helper()
	ed, err := object.NewEditor(base, k)
	if err != nil {
		t.Fatal(err)
	}
	u := update.NewUnconditional(guid.Zero, update.BlockOps(ed.Append([]byte(payload))))
	u.ClientID, u.Seq, u.Timestamp = client, seq, ts
	return u
}

func read(t *testing.T, v *object.Version, k crypt.BlockKey) string {
	t.Helper()
	b, err := object.NewView(v, k).Read()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestTentativeVisibleImmediately(t *testing.T) {
	k := testKey(1)
	v0 := object.NewObject([]byte("base."), 8, k)
	r := New(v0)
	u := appendUpdate(t, v0, k, "x", guid.FromData([]byte("c1")), 1, 10)
	if !r.AddTentative(u) {
		t.Fatal("add failed")
	}
	if got := read(t, r.TentativeState(0), k); got != "base.x" {
		t.Fatalf("tentative state %q", got)
	}
	// Committed state is unchanged until the primary serialises.
	if got := read(t, r.CommittedState(), k); got != "base." {
		t.Fatalf("committed state %q", got)
	}
	if r.AddTentative(u) {
		t.Fatal("duplicate accepted")
	}
}

func TestTentativeOrderByTimestamp(t *testing.T) {
	k := testKey(2)
	v0 := object.NewObject([]byte(""), 8, k)
	c1, c2 := guid.FromData([]byte("c1")), guid.FromData([]byte("c2"))
	u1 := appendUpdate(t, v0, k, "A", c1, 1, 30)
	u2 := appendUpdate(t, v0, k, "B", c2, 1, 10)
	u3 := appendUpdate(t, v0, k, "C", c1, 2, 20)

	// Two replicas receive the updates in different orders...
	ra, rb := New(v0), New(v0)
	for _, u := range []*update.Update{u1, u2, u3} {
		ra.AddTentative(u)
	}
	for _, u := range []*update.Update{u3, u1, u2} {
		rb.AddTentative(u)
	}
	// ...but agree on the tentative serialisation (timestamp order).
	sa := read(t, ra.TentativeState(0), k)
	sb := read(t, rb.TentativeState(0), k)
	if sa != sb {
		t.Fatalf("replicas disagree: %q vs %q", sa, sb)
	}
	if sa != "BCA" {
		t.Fatalf("tentative order %q, want BCA", sa)
	}
}

func TestTimestampTiesBreakDeterministically(t *testing.T) {
	k := testKey(3)
	v0 := object.NewObject([]byte(""), 8, k)
	c1, c2 := guid.FromData([]byte("c1")), guid.FromData([]byte("c2"))
	u1 := appendUpdate(t, v0, k, "X", c1, 1, 10)
	u2 := appendUpdate(t, v0, k, "Y", c2, 1, 10) // same timestamp
	ra, rb := New(v0), New(v0)
	ra.AddTentative(u1)
	ra.AddTentative(u2)
	rb.AddTentative(u2)
	rb.AddTentative(u1)
	if read(t, ra.TentativeState(0), k) != read(t, rb.TentativeState(0), k) {
		t.Fatal("tie order not deterministic")
	}
}

func TestCommitReordersTentative(t *testing.T) {
	// The primary may choose an order different from the tentative one;
	// rollback/replay must converge to the committed order.
	k := testKey(4)
	v0 := object.NewObject([]byte(""), 8, k)
	c := guid.FromData([]byte("c"))
	uA := appendUpdate(t, v0, k, "A", c, 1, 10)
	uB := appendUpdate(t, v0, k, "B", c, 2, 20)
	r := New(v0)
	r.AddTentative(uA)
	r.AddTentative(uB)
	if got := read(t, r.TentativeState(0), k); got != "AB" {
		t.Fatalf("tentative %q", got)
	}
	// Primary commits B first.
	r.Commit(uB, 1)
	if got := read(t, r.CommittedState(), k); got != "B" {
		t.Fatalf("committed %q", got)
	}
	// Tentative view: committed B, then tentative A replayed on top.
	if got := read(t, r.TentativeState(1), k); got != "BA" {
		t.Fatalf("tentative after partial commit %q", got)
	}
	r.Commit(uA, 2)
	if got := read(t, r.CommittedState(), k); got != "BA" {
		t.Fatalf("final committed %q", got)
	}
	if r.TentativeLen() != 0 {
		t.Fatal("tentative set not drained")
	}
	if r.CommittedLen() != 2 {
		t.Fatalf("committed len %d", r.CommittedLen())
	}
}

func TestAbortedCommitLoggedButNotApplied(t *testing.T) {
	k := testKey(5)
	v0 := object.NewObject([]byte("zz"), 8, k)
	c := guid.FromData([]byte("c"))
	ed, _ := object.NewEditor(v0, k)
	u := update.NewVersionGuarded(guid.Zero, 99 /* stale */, update.BlockOps(ed.Append([]byte("x"))))
	u.ClientID, u.Seq, u.Timestamp = c, 1, 5
	r := New(v0)
	out := r.Commit(u, 1)
	if out.Committed {
		t.Fatal("stale update committed")
	}
	if got := read(t, r.CommittedState(), k); got != "zz" {
		t.Fatalf("state %q after abort", got)
	}
	if r.Log.Len() != 1 {
		t.Fatal("aborted update not logged")
	}
	if len(r.Log.Commits()) != 0 {
		t.Fatal("abort recorded as commit")
	}
}

func TestAntiEntropyConvergence(t *testing.T) {
	k := testKey(6)
	v0 := object.NewObject([]byte(""), 8, k)
	c1, c2 := guid.FromData([]byte("c1")), guid.FromData([]byte("c2"))
	// Three replicas, each hearing one distinct update.
	rs := []*Replica{New(v0), New(v0), New(v0)}
	rs[0].AddTentative(appendUpdate(t, v0, k, "A", c1, 1, 10))
	rs[1].AddTentative(appendUpdate(t, v0, k, "B", c2, 1, 20))
	rs[2].AddTentative(appendUpdate(t, v0, k, "C", c1, 2, 30))
	// Epidemic rounds: 0<->1, 1<->2, 0<->2.
	AntiEntropy(rs[0], rs[1], 0)
	AntiEntropy(rs[1], rs[2], 0)
	AntiEntropy(rs[0], rs[2], 0)
	want := read(t, rs[0].TentativeState(0), k)
	if want != "ABC" {
		t.Fatalf("converged state %q, want ABC", want)
	}
	for i, r := range rs {
		if got := read(t, r.TentativeState(0), k); got != want {
			t.Fatalf("replica %d state %q, want %q", i, got, want)
		}
		if r.TentativeLen() != 3 {
			t.Fatalf("replica %d has %d tentative", i, r.TentativeLen())
		}
	}
	// A second exchange moves nothing (idempotent).
	if moved := AntiEntropy(rs[0], rs[1], 0); moved != 0 {
		t.Fatalf("second exchange moved %d", moved)
	}
}

func TestAntiEntropySyncsCommittedPrefix(t *testing.T) {
	k := testKey(7)
	v0 := object.NewObject([]byte(""), 8, k)
	c := guid.FromData([]byte("c"))
	uA := appendUpdate(t, v0, k, "A", c, 1, 10)
	uB := appendUpdate(t, v0, k, "B", c, 2, 20)
	ahead, behind := New(v0), New(v0)
	ahead.Commit(uA, 1)
	ahead.Commit(uB, 2)
	behind.AddTentative(uB) // behind knows B only tentatively
	AntiEntropy(ahead, behind, 3)
	if behind.CommittedLen() != 2 {
		t.Fatalf("behind committed %d", behind.CommittedLen())
	}
	if got := read(t, behind.CommittedState(), k); got != "AB" {
		t.Fatalf("behind state %q", got)
	}
	if behind.TentativeLen() != 0 {
		t.Fatal("tentative copy of committed update not drained")
	}
}

func TestVersionVectorAndDominates(t *testing.T) {
	k := testKey(8)
	v0 := object.NewObject([]byte(""), 8, k)
	c1, c2 := guid.FromData([]byte("c1")), guid.FromData([]byte("c2"))
	r := New(v0)
	r.AddTentative(appendUpdate(t, v0, k, "A", c1, 1, 10))
	r.AddTentative(appendUpdate(t, v0, k, "B", c1, 2, 20))
	r.AddTentative(appendUpdate(t, v0, k, "C", c2, 7, 30))
	vv := r.VersionVector()
	if vv[c1] != 2 || vv[c2] != 7 {
		t.Fatalf("vv = %v", vv)
	}
	if !r.Dominates(map[guid.GUID]uint64{c1: 2}) {
		t.Fatal("should dominate subset")
	}
	if r.Dominates(map[guid.GUID]uint64{c1: 3}) {
		t.Fatal("should not dominate unseen seq")
	}
	if !r.Dominates(nil) {
		t.Fatal("everything dominates the empty vector")
	}
}

func TestRandomGossipConverges(t *testing.T) {
	// Property-style: 8 replicas, 30 random updates injected at random
	// replicas, then enough random pairwise exchanges; all replicas
	// converge to identical tentative state.
	k := testKey(9)
	v0 := object.NewObject([]byte(""), 4, k)
	r := rand.New(rand.NewSource(10))
	reps := make([]*Replica, 8)
	for i := range reps {
		reps[i] = New(v0)
	}
	clients := []guid.GUID{guid.FromData([]byte("p")), guid.FromData([]byte("q"))}
	seqs := map[guid.GUID]uint64{}
	for i := 0; i < 30; i++ {
		c := clients[r.Intn(2)]
		seqs[c]++
		u := appendUpdate(t, v0, k, string(rune('a'+i%26)), c, seqs[c], time.Duration(r.Intn(1000)))
		reps[r.Intn(8)].AddTentative(u)
	}
	for i := 0; i < 200; i++ {
		a, b := r.Intn(8), r.Intn(8)
		if a != b {
			AntiEntropy(reps[a], reps[b], 0)
		}
	}
	want := read(t, reps[0].TentativeState(0), k)
	for i, rep := range reps {
		if got := read(t, rep.TentativeState(0), k); got != want {
			t.Fatalf("replica %d diverged", i)
		}
	}
}

// TestTentativeReplayDefersTheMerkleRoot: a replay applies updates whose
// outcome nobody records, so it must not pay for the successor's GUID —
// a Merkle root over every block — until something asks; Commit, which
// logs the outcome, still records it, and the two agree.
func TestTentativeReplayDefersTheMerkleRoot(t *testing.T) {
	k := testKey(9)
	v0 := object.NewObject([]byte("base."), 8, k)
	r := New(v0)
	u := appendUpdate(t, v0, k, "x", guid.FromData([]byte("c1")), 1, 10)
	if !r.AddTentative(u) {
		t.Fatal("add failed")
	}
	v := r.TentativeState(0)
	// Nothing exposes the memo, so ask the hash: flip a ciphertext bit
	// in place.  A version that had already computed its GUID keeps
	// reporting the root of the old bytes; one that had not hashes the
	// flipped ones.
	ct := v.Blocks[len(v.Blocks)-1].CT
	ct[0] ^= 1
	flipped := v.GUID()
	ct[0] ^= 1
	v.InvalidateGUID()
	if flipped == v.GUID() {
		t.Fatal("the replay hashed a version nobody had asked the GUID of")
	}
	out := New(v0).Commit(u, 0)
	if !out.Committed || out.Result.IsZero() || out.Result != v.GUID() {
		t.Fatalf("Commit recorded result %v, the replayed version's GUID is %v", out.Result, v.GUID())
	}
}
