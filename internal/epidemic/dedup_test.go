package epidemic

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
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
	var counts Counts
	sec.Instrument(&counts)
	sec.AddTentative(good) // the client's Fig-5a copy got there first
	want := make([]update.Outcome, len(serialised))
	for i, u := range serialised {
		want[i] = primary.Commit(u, i, 30)
	}
	if !want[0].Committed || want[1].Committed {
		t.Fatalf("setup: outcomes %+v, want one commit and one abort", want)
	}
	if moved := AntiEntropy(primary, sec, 40); moved != len(serialised) {
		t.Fatalf("anti-entropy moved %d updates, want %d", moved, len(serialised))
	}
	for i, u := range serialised { // the tree push, late
		if got := sec.Commit(u, i, 50); got != want[i] {
			t.Fatalf("duplicate commit %d answered %+v, primary logged %+v", i, got, want[i])
		}
	}
	if sec.Log.Len() != 2 || sec.CommittedLen() != 2 || len(sec.tentative) != 0 {
		t.Fatalf("duplicates changed state: log %d, committed %d, tentative %d",
			sec.Log.Len(), sec.CommittedLen(), len(sec.tentative))
	}
	if got := counts[DupCommits]; got != 2 {
		t.Fatalf("dup_commits = %d, want 2", got)
	}
	if got := read(t, sec.CommittedState(), k); got != "base.A" {
		t.Fatalf("committed state %q", got)
	}
}

// TestCheckpointCoversItsWindow: a commit a checkpoint already covers
// can still arrive after it — the tree push that was in flight while a
// secondary joined, or a late push after an adoption.  It must be a
// duplicate, answered with the logged outcome: the copied window is not
// a commit, and neither is the late arrival.
func TestCheckpointCoversItsWindow(t *testing.T) {
	k := testKey(77) // commitChain's key
	v0 := object.NewObject([]byte("base."), 8, k)
	src := New(v0)
	commitChain(t, src, 3, 1, 10)
	covered, coveredUpdate := src.Log.Entries()[2], src.view().Update(2)
	want := read(t, src.CommittedState(), k)

	joiner := NewAt(src.Checkpoint())
	adopter := New(v0)
	adopter.AddTentative(coveredUpdate) // its Fig-5a copy got there first
	adopter.Adopt(src.Checkpoint())
	for name, r := range map[string]*Replica{"joined": joiner, "adopted": adopter} {
		var counts Counts
		r.Instrument(&counts)
		if got := r.Commit(coveredUpdate, 2, 50); got != covered.Outcome {
			t.Fatalf("%s: late push answered %+v, logged %+v", name, got, covered.Outcome)
		}
		if r.CommittedLen() != src.CommittedLen() || len(r.tentative) != 0 {
			t.Fatalf("%s: committed %d (source %d), tentative %d",
				name, r.CommittedLen(), src.CommittedLen(), len(r.tentative))
		}
		if got := read(t, r.CommittedState(), k); got != want {
			t.Fatalf("%s: state %q, source %q", name, got, want)
		}
		if c, a := r.Log.Counts(); c != 0 || a != 0 {
			t.Fatalf("%s: log tallies %d+%d, want the copy uncounted", name, c, a)
		}
		if got := counts[DupCommits]; got != 1 {
			t.Fatalf("%s: dup_commits = %d, want 1", name, got)
		}
	}
}

// TestDedupTableIsWindowPlusTentative runs a seeded schedule of
// client proposals, primary commits, in-order tree pushes, late
// duplicate pushes, anti-entropy, expiry, checkpoint joins, empty
// restarts and pulls over one primary and three secondaries — long enough that
// every log trims.  After every step, what each replica's dedup answers
// rest on must be exactly its log window's IDs, each at its position,
// and its tentative set's IDs.
func TestDedupTableIsWindowPlusTentative(t *testing.T) {
	k := testKey(77)
	v0 := object.NewObject([]byte("base."), 8, k)
	rng := rand.New(rand.NewSource(29))
	var counts Counts // every secondary's, together
	primary := New(v0)
	reps := make([]*Replica, 3)
	for i := range reps {
		reps[i] = New(v0)
		reps[i].Instrument(&counts)
	}
	client := guid.FromData([]byte("schedule"))
	var proposed, order []*update.Update // proposed but unserialised; the serial order
	seq, now := uint64(0), time.Duration(0)
	for step := 0; step < 4000; step++ {
		now += time.Duration(rng.Intn(1000)) * time.Millisecond
		r := reps[rng.Intn(len(reps))]
		switch op := rng.Intn(20); {
		case op < 6: // a client proposes; a secondary takes its copy
			seq++
			u := appendUpdate(t, v0, k, "x", client, seq, now)
			proposed = append(proposed, u)
			r.AddTentative(u)
		case op < 10: // the primary serialises a proposal
			if len(proposed) > 0 {
				i := rng.Intn(len(proposed))
				primary.Commit(proposed[i], primary.CommittedLen(), now)
				order = append(order, proposed[i])
				proposed = slices.Delete(proposed, i, i+1)
			}
		case op < 15: // the tree pushes the next commits, in order
			for n := rng.Intn(8); n > 0 && r.CommittedLen() < len(order); n-- {
				r.Commit(order[r.CommittedLen()], r.CommittedLen(), now)
			}
		case op < 16: // a late push of a commit still in the window
			if w := r.CommittedLen() - r.Log.Start(); w > 0 {
				pos := r.Log.Start() + rng.Intn(w)
				if got := r.Commit(order[pos], pos, now); got != r.Log.At(pos).Outcome || r.CommittedLen() != r.Log.Len() {
					t.Fatalf("step %d: duplicate of position %d answered %+v", step, pos, got)
				}
			}
		case op < 18:
			AntiEntropy(r, reps[rng.Intn(len(reps))], now)
		case op < 19: // a stall long enough to expire every tentative update
			now += TentativeExpire
			r.TentativeState(now)
		default: // the replica's node is replaced — by a fresh join, or by
			// an empty replica that the next exchange catches up — or pulls
			switch i := slices.Index(reps, r); rng.Intn(3) {
			case 0:
				reps[i] = NewAt(primary.Checkpoint())
				reps[i].Instrument(&counts)
			case 1:
				reps[i] = New(v0)
				reps[i].Instrument(&counts)
			default:
				r.CatchUp(primary.Checkpoint(), now)
			}
		}
		for i, r := range append([]*Replica{primary}, reps...) {
			want := map[update.UpdateID]int{}
			for pos := r.Log.Start(); pos < r.Log.Len(); pos++ {
				want[r.Log.At(pos).ID()] = pos
			}
			for _, u := range r.tentative {
				want[u.ID()] = tentativeMark
			}
			if got := known(t, r); !maps.Equal(got, want) {
				t.Fatalf("step %d: replica %d knows %d IDs, window [%d,%d) + %d tentative",
					step, i, len(got), r.Log.Start(), r.Log.Len(), len(r.tentative))
			}
		}
	}
	// The schedule must have reached every path it claims to.
	if primary.Log.Start() == 0 {
		t.Fatal("the primary's log never trimmed")
	}
	for _, c := range []int{Commits, DupCommits, Expired, Checkpoints} {
		if counts[c] == 0 {
			t.Fatalf("no secondary counted epidemic/%s", countNames[c])
		}
	}
}

// TestCloneAndAdoptCopyDedupTable: a replica that adopted a checkpoint
// — by joining, or by repair over a replica holding its own tentative
// copy — answers duplicates exactly as its source does, and owns its
// own table.
func TestCloneAndAdoptCopyDedupTable(t *testing.T) {
	k := testKey(51)
	v0 := object.NewObject([]byte("base."), 8, k)
	c := guid.FromData([]byte("c"))
	src := New(v0)
	uA := appendUpdate(t, v0, k, "A", c, 1, 10)
	want := src.Commit(uA, 0, 1)
	uB := appendUpdate(t, src.CommittedState(), k, "B", c, 2, 20)
	src.AddTentative(uB)

	joined := NewAt(src.Checkpoint())
	repaired := New(v0)
	repaired.AddTentative(uB)
	repaired.Adopt(src.Checkpoint())
	for name, r := range map[string]*Replica{"joined": joined, "repaired": repaired} {
		if pos, ok := known(t, r)[uA.ID()]; !ok || pos != 0 {
			t.Fatalf("%s: dedup table %+v", name, known(t, r))
		}
		if got := r.Commit(uA, 0, 50); got != want {
			t.Fatalf("%s: duplicate commit answered %+v, want %+v", name, got, want)
		}
		if r.CommittedLen() != 1 {
			t.Fatalf("%s: duplicate commit applied again", name)
		}
	}
	// The checkpoint carries committed state only: the join holds no
	// tentative copy, the repaired replica keeps its own.
	if joined.Seen(uB.ID()) || known(t, repaired)[uB.ID()] != tentativeMark || repaired.AddTentative(uB) {
		t.Fatal("adoption changed the tentative set it does not cover")
	}
	repaired.Commit(uB, 1, 60)
	if known(t, src)[uB.ID()] != tentativeMark || src.CommittedLen() != 1 {
		t.Fatal("tables are shared between a replica and its checkpoint's source")
	}
}

// TestCommitPastLogEndWaits: a commit whose position lies past the log
// end arrived ahead of a predecessor the replica missed.  It is not
// applied — applied at the end it would put the log off the primary's
// order for good, because anti-entropy replays from the log end and
// would then meet it as a duplicate — and is no duplicate either.
// Anti-entropy fills the gap in order.
func TestCommitPastLogEndWaits(t *testing.T) {
	k := testKey(52)
	v0 := object.NewObject([]byte("base."), 8, k)
	c := guid.FromData([]byte("c"))
	primary, sec := New(v0), New(v0)
	var counts Counts
	sec.Instrument(&counts)
	var order []*update.Update
	for i, s := range []string{"a", "b", "c"} {
		u := appendUpdate(t, primary.CommittedState(), k, s, c, uint64(i+1), time.Duration(i))
		primary.Commit(u, i, time.Duration(i))
		order = append(order, u)
	}
	sec.Commit(order[0], 0, 10)
	if got := sec.Commit(order[2], 2, 11); got.Committed {
		t.Fatalf("a commit past the log end answered %+v", got)
	}
	if sec.CommittedLen() != 1 || sec.Seen(order[2].ID()) || read(t, sec.CommittedState(), k) != "base.a" {
		t.Fatalf("a commit past the log end was applied: length %d", sec.CommittedLen())
	}
	if got := counts[DupCommits]; got != 0 {
		t.Fatalf("dup_commits = %d for a commit the replica never had", got)
	}
	if moved := AntiEntropy(primary, sec, 12); moved != 2 {
		t.Fatalf("anti-entropy moved %d, want the 2 missing commits", moved)
	}
	if sec.CommittedLen() != 3 || read(t, sec.CommittedState(), k) != "base.abc" {
		t.Fatalf("after anti-entropy: length %d, state %q", sec.CommittedLen(), read(t, sec.CommittedState(), k))
	}
}

// tentativeMark is known's mark for an update held only tentatively.
const tentativeMark = -1

// known is what the replica's dedup answers rest on, as one map: each
// update the log index points at, mapped to its log position, and each
// tentative update, mapped to tentativeMark.  Every indexed update must
// be found by a lookup from its home slot, and no update may be indexed
// twice or be both logged and tentative.
func known(t *testing.T, r *Replica) map[update.UpdateID]int {
	t.Helper()
	m := map[update.UpdateID]int{}
	for _, p := range r.index {
		if p == 0 {
			continue
		}
		id, pos := r.Log.Entries()[p-1].ID(), r.Log.Start()+int(p)-1
		if at, ok := r.logged(id); !ok || at != pos {
			t.Fatalf("the index points at %v's position %d, a lookup finds %d, %v", id, pos, at, ok)
		}
		if _, dup := m[id]; dup {
			t.Fatalf("the index points at %v twice", id)
		}
		m[id] = pos
	}
	for _, u := range r.tentative {
		if _, dup := m[u.ID()]; dup {
			t.Fatalf("%v is both logged and tentative, or tentative twice", u.ID())
		}
		m[u.ID()] = tentativeMark
	}
	return m
}
