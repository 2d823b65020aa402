package epidemic

import (
	"math/rand"
	"slices"
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
	r.Commit(uB, 0, 1)
	if got := read(t, r.CommittedState(), k); got != "B" {
		t.Fatalf("committed %q", got)
	}
	// Tentative view: committed B, then tentative A replayed on top.
	if got := read(t, r.TentativeState(1), k); got != "BA" {
		t.Fatalf("tentative after partial commit %q", got)
	}
	r.Commit(uA, 1, 2)
	if got := read(t, r.CommittedState(), k); got != "BA" {
		t.Fatalf("final committed %q", got)
	}
	if len(r.tentative) != 0 {
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
	out := r.Commit(u, 0, 1)
	if out.Committed {
		t.Fatal("stale update committed")
	}
	if got := read(t, r.CommittedState(), k); got != "zz" {
		t.Fatalf("state %q after abort", got)
	}
	if r.Log.Len() != 1 {
		t.Fatal("aborted update not logged")
	}
	if commits, _ := r.Log.Counts(); commits != 0 {
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
		if len(r.tentative) != 3 {
			t.Fatalf("replica %d has %d tentative", i, len(r.tentative))
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
	ahead.Commit(uA, 0, 1)
	ahead.Commit(uB, 1, 2)
	behind.AddTentative(uB) // behind knows B only tentatively
	AntiEntropy(ahead, behind, 3)
	if behind.CommittedLen() != 2 {
		t.Fatalf("behind committed %d", behind.CommittedLen())
	}
	if got := read(t, behind.CommittedState(), k); got != "AB" {
		t.Fatalf("behind state %q", got)
	}
	if len(behind.tentative) != 0 {
		t.Fatal("tentative copy of committed update not drained")
	}
}

// TestPrefixOf: a log is a prefix of another when it is no longer and
// holds the same update at every position; a longer log, or one that
// holds another update at a shared position, is not.
func TestPrefixOf(t *testing.T) {
	k := testKey(9)
	v0 := object.NewObject([]byte(""), 8, k)
	c := guid.FromData([]byte("c"))
	uA := appendUpdate(t, v0, k, "A", c, 1, 10)
	uB := appendUpdate(t, v0, k, "B", c, 2, 20)
	uC := appendUpdate(t, v0, k, "C", c, 3, 30)
	primary, short, other := New(v0), New(v0), New(v0)
	primary.Commit(uA, 0, 1)
	primary.Commit(uB, 1, 2)
	short.Commit(uA, 0, 1)
	other.Commit(uA, 0, 1)
	other.Commit(uC, 1, 2)
	if !short.PrefixOf(primary) || !primary.PrefixOf(primary) || !New(v0).PrefixOf(primary) {
		t.Fatal("a shorter matching log is a prefix")
	}
	if primary.PrefixOf(short) {
		t.Fatal("a longer log is not a prefix")
	}
	if other.PrefixOf(primary) {
		t.Fatal("a log holding another update at position 1 is not a prefix")
	}
}

// TestTentativeIDs: the IDs come back in the timestamp order
// TentativeState applies the updates, whatever order they arrived in,
// appended to dst; a committed update leaves them.
func TestTentativeIDs(t *testing.T) {
	k := testKey(8)
	v0 := object.NewObject([]byte(""), 8, k)
	c1, c2 := guid.FromData([]byte("c1")), guid.FromData([]byte("c2"))
	uA := appendUpdate(t, v0, k, "A", c1, 1, 30)
	uB := appendUpdate(t, v0, k, "B", c1, 2, 10)
	uC := appendUpdate(t, v0, k, "C", c2, 7, 20)
	r := New(v0)
	if ids := r.TentativeIDs(nil); ids != nil {
		t.Fatalf("empty replica lists %v", ids)
	}
	for _, u := range []*update.Update{uA, uB, uC} {
		r.AddTentative(u)
	}
	head := uC.ID()
	got := r.TentativeIDs([]update.UpdateID{head})
	if want := []update.UpdateID{head, uB.ID(), uC.ID(), uA.ID()}; !slices.Equal(got, want) {
		t.Fatalf("TentativeIDs = %v, want %v", got, want)
	}
	if got := read(t, r.TentativeState(0), k); got != "BCA" {
		t.Fatalf("tentative state %q, want the IDs' order", got)
	}
	r.Commit(uC, 0, 40)
	if got, want := r.TentativeIDs(nil), []update.UpdateID{uB.ID(), uA.ID()}; !slices.Equal(got, want) {
		t.Fatalf("after commit TentativeIDs = %v, want %v", got, want)
	}
}

// TestHeld: a replica finds its copy of an update by content digest —
// tentatively, then at its log position while that is among the last
// Reach — and not a different content under the same ID.
func TestHeld(t *testing.T) {
	k := testKey(9)
	v0 := object.NewObject([]byte(""), 8, k)
	c := guid.FromData([]byte("c"))
	u := appendUpdate(t, v0, k, "u", c, 1, 10)
	forged := appendUpdate(t, v0, k, "forged", c, 1, 10)
	r := New(v0)
	if r.Held(u.Digest(), 0) != nil {
		t.Fatal("an empty replica holds an update")
	}
	r.AddTentative(u)
	if r.Held(u.Digest(), 0) != u || r.Held(forged.Digest(), 0) != nil {
		t.Fatal("the tentative copy is not found by its own digest alone")
	}
	r.Commit(u, 0, 20)
	if r.Held(u.Digest(), 0) != u || r.Held(u.Digest(), 1) != nil {
		t.Fatal("the committed update is not found at its position alone")
	}
	for seq := uint64(2); seq < 2+Reach; seq++ {
		r.Commit(appendUpdate(t, r.CommittedState(), k, "x", c, seq, 30), int(seq-1), 40)
	}
	if r.Held(u.Digest(), 0) != nil {
		t.Fatalf("an update %d positions back is still held", Reach)
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

// TestTentativeReplayDefersTheMerkleRoot: a replay must not pay for the
// successor's GUID — a Merkle root over every block — until something
// asks, and neither must Commit: the outcome it logs names no version
// (the primary tier's History names each committed version by GUID).
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
	flippedGUID := func(v *object.Version) guid.GUID {
		ct := v.Blocks[len(v.Blocks)-1].CT
		ct[0] ^= 1
		defer func() { ct[0] ^= 1 }()
		return v.GUID()
	}
	flipped := flippedGUID(v)
	// The same replay on another replica gives the unflipped bytes' root.
	other := New(v0)
	other.AddTentative(u)
	want := other.TentativeState(0).GUID()
	if flipped == want {
		t.Fatal("the replay hashed a version nobody had asked the GUID of")
	}
	committer := New(v0)
	if out := committer.Commit(u, 0, 0); !out.Committed {
		t.Fatalf("commit answered %+v", out)
	}
	if flippedGUID(committer.CommittedState()) == want {
		t.Fatal("Commit hashed the version it applied")
	}
}

// TestInstrumentNilDetaches: instrumenting with a nil registry's
// tally detaches the replica, so later commits count nowhere.
func TestInstrumentNilDetaches(t *testing.T) {
	k := testKey(8)
	v0 := object.NewObject([]byte(""), 8, k)
	r := New(v0)
	var counts Counts
	r.Instrument(&counts)
	r.Instrument(NewTally(nil).At(1))
	r.Commit(appendUpdate(t, v0, k, "A", guid.FromData([]byte("c")), 1, 0), 0, 1)
	if got := counts[Commits]; got != 0 {
		t.Fatalf("a detached replica counted %d commits", got)
	}
}
