package byz

import (
	"fmt"
	"math"
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/simnet"
)

// commitN drives n requests through the tier one after another.
func commitN(t *testing.T, g *Group, client simnet.NodeID, prefix string, n int) {
	t.Helper()
	done := 0
	for i := 0; i < n; i++ {
		g.Submit(client, req(fmt.Sprintf("%s%d", prefix, i), 100), func(Result) { done++ })
		g.net.K.RunFor(time.Second)
	}
	if done != n {
		t.Fatalf("committed %d/%d", done, n)
	}
}

// TestStaleAndFarSeqStayOutOfTheWindow: a message naming a sequence
// number behind the floor or far ahead of it — in any of the three
// phases — gets its slot in the fallback map, as it always has, and
// leaves the window's size alone.  The stale ones go at the next
// truncation.
func TestStaleAndFarSeqStayOutOfTheWindow(t *testing.T) {
	_, _, g, client := tier(t, 4, 1, 21)
	commitN(t, g, client, "warm", checkpointWindow+36)
	r := g.replicas[1]
	if r.floor != 36 {
		t.Fatalf("floor = %d, want 36", r.floor)
	}
	before := len(r.window)
	stale := []uint64{0, 7, r.floor - 1}
	far := []uint64{r.floor + windowSpan, 1 << 40, math.MaxUint64}
	for i, seq := range append(append([]uint64(nil), stale...), far...) {
		forged := req(fmt.Sprintf("forged%d", i), 100)
		r.onPrepare(voteMsg{View: r.view, Seq: seq, Digest: forged.ID, Replica: 2})
		r.onCommit(voteMsg{View: r.view, Seq: seq, Digest: forged.ID, Replica: 3})
		r.onPrePrepare(prePrepareMsg{View: r.view, Seq: seq, Req: forged})
	}
	if len(r.window) != before {
		t.Fatalf("window grew %d -> %d on out-of-range sequence numbers", before, len(r.window))
	}
	if len(r.far) != len(stale)+len(far) {
		t.Fatalf("fallback holds %d slots, want %d", len(r.far), len(stale)+len(far))
	}
	// A sequence number at the window's far edge is in range: the window
	// grows to its bound and no further.
	r.onPrepare(voteMsg{View: r.view, Seq: r.floor + windowSpan - 1, Replica: 2})
	if len(r.window) != windowSpan {
		t.Fatalf("window is %d wide, want the %d bound", len(r.window), windowSpan)
	}
	// The tier still works, and the next execution truncates the stale
	// slots away.
	commitN(t, g, client, "after", 1)
	for _, seq := range stale {
		if r.lookup(seq) != nil {
			t.Fatalf("stale slot %d survived truncation", seq)
		}
	}
	if len(r.far) != len(far) {
		t.Fatalf("fallback holds %d slots after truncation, want the %d far-future ones", len(r.far), len(far))
	}
}

// TestForgedSeqCannotPinMemory: a lying primary pre-prepares a thousand
// requests at absurd sequence numbers to one backup.  None of them
// sizes the window — the naive seq-floor index would have asked for
// 2^50 entries — and the view change that deposes the primary returns
// every slot to the pool.  (Forged slots a quorum of honest backups has
// already committed are kept, as committed slots always are: refusing
// them takes PBFT's watermarks, which this tier does not have.)
func TestForgedSeqCannotPinMemory(t *testing.T) {
	k, net, g, _ := tier(t, 4, 1, 22)
	const forged = 1000
	for i := 0; i < forged; i++ {
		rq := req(fmt.Sprintf("forged%d", i), 100)
		rq.Tag = g.tag
		pp := prePrepareMsg{Tag: g.tag, View: 0, Seq: 1<<50 + uint64(i)<<20, Req: rq}
		net.Send(g.nodes[0], g.nodes[1], kindPrePrepare, pp, rq.Size+CHeader)
	}
	k.RunFor(time.Second)
	r := g.replicas[1]
	if len(r.window) != 0 {
		t.Fatalf("forged sequence numbers sized the window to %d", len(r.window))
	}
	if len(r.far) != forged {
		t.Fatalf("fallback holds %d slots, want %d", len(r.far), forged)
	}
	r.installView(1)
	if r.slotCount() != 0 {
		t.Fatalf("%d forged slots survive the view change", r.slotCount())
	}
	if len(r.slotFree) != forged {
		t.Fatalf("%d slots back in the pool, want %d", len(r.slotFree), forged)
	}
}

// TestViewInstallRecyclesWindowAndFallback: installing a view returns
// every un-committed slot's request to pending, wherever the slot
// lived, and keeps committed slots.
func TestViewInstallRecyclesWindowAndFallback(t *testing.T) {
	_, _, g, client := tier(t, 4, 1, 23)
	commitN(t, g, client, "done", 3)
	r := g.replicas[2]
	committed := r.slotCount()
	near, far := req("near", 100), req("far", 100)
	r.onPrePrepare(prePrepareMsg{View: 0, Seq: r.execCursor + 2, Req: near})
	r.onPrePrepare(prePrepareMsg{View: 0, Seq: r.execCursor + windowSpan + 5, Req: far})
	if r.slotCount() != committed+2 || len(r.far) != 1 {
		t.Fatalf("setup: %d slots (%d in fallback), want %d (1)", r.slotCount(), len(r.far), committed+2)
	}
	r.installView(1)
	if r.slotCount() != committed || len(r.far) != 0 {
		t.Fatalf("%d slots (%d in fallback) after view install, want the %d committed ones",
			r.slotCount(), len(r.far), committed)
	}
	for _, rq := range []Request{near, far} {
		rec := r.reqs[rq.ID]
		if rec == nil || !rec.pending || rec.assigned || rec.req.ID != rq.ID {
			t.Fatalf("request %s not returned to pending: %+v", rq.Payload, rec)
		}
	}
	if rec := r.reqs[guid.FromData([]byte("done0"))]; rec == nil || !rec.done {
		t.Fatal("an executed request lost its record to the view change")
	}
}

// TestRecordsAndTimersRetire: a request's record returns to the pool
// doneWindow executions after it ran, and its timers leave the kernel
// the moment it executes — a second after the last commit the queue is
// empty, where it used to hold five timeouts per recent request.
func TestRecordsAndTimersRetire(t *testing.T) {
	k, _, g, client := tier(t, 4, 1, 24)
	const total = doneWindow + 100
	commitN(t, g, client, "u", total)
	if n := k.Pending(); n != 0 {
		t.Fatalf("%d events still queued after every request resolved", n)
	}
	if st := k.Stats(); st.Stopped < 4*total {
		t.Fatalf("only %d timers stopped over %d requests (3 backup timers + 1 retransmission each)", st.Stopped, total)
	}
	for _, r := range g.replicas {
		if len(r.reqs) != doneWindow {
			t.Fatalf("replica %d keeps %d request records, want the last %d", r.id, len(r.reqs), doneWindow)
		}
		if len(r.recFree) == 0 {
			t.Fatalf("replica %d pooled no retired records", r.id)
		}
		if r.reqs[guid.FromData([]byte("u0"))] != nil {
			t.Fatalf("replica %d still remembers the first request", r.id)
		}
	}
	cs := g.clients[client]
	if len(cs.pending) != 0 || len(g.reqFree) == 0 {
		t.Fatalf("client keeps %d pending records, pool %d", len(cs.pending), len(g.reqFree))
	}
}

// TestLateRetransmissionAfterEviction pins the one behaviour the
// stopped timers changed.  A backup's timer for X is stopped when X
// executes.  If doneWindow further executions then evict X's record
// before that timer's deadline, and a very late retransmission of X
// arrives, the backup treats X as new and arms a fresh timer — and only
// that one can vote.  (The unstopped timer used to fire at the old
// deadline, find X pending again, and vote a view change early.)
func TestLateRetransmissionAfterEviction(t *testing.T) {
	k, _, g, client := tier(t, 4, 1, 25)
	x := req("x", 100)
	g.Submit(client, x, nil)
	k.RunFor(time.Second) // X executed; its backup timers were due at ~3.1 s
	done := 0
	for i := 0; i < doneWindow; i++ {
		g.Submit(client, req(fmt.Sprintf("filler%d", i), 100), func(Result) { done++ })
	}
	k.RunFor(1500 * time.Millisecond)
	r := g.replicas[1]
	if done != doneWindow || r.reqs[x.ID] != nil {
		t.Fatalf("setup: %d/%d fillers committed, X's record %v", done, doneWindow, r.reqs[x.ID])
	}
	x.Tag, x.Client = g.tag, client
	r.onRequest(x) // at 2.5 s: fresh timer due at 5.5 s
	k.RunUntil(4 * time.Second)
	if r.viewVotes[1][r.id] {
		t.Fatal("a timer stopped at execution still voted at its old deadline")
	}
	k.RunUntil(6 * time.Second)
	if !r.viewVotes[1][r.id] {
		t.Fatal("the fresh timer never voted")
	}
}
