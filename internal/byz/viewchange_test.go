package byz

import (
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/simnet"
)

func TestCascadedViewChanges(t *testing.T) {
	// Primaries of view 0 AND view 1 are dead: liveness requires two
	// successive view changes before view 2's primary commits.
	k, net, g, client := tier(t, 7, 2, 40)
	order := record(g)
	net.Crash(g.nodes[0]) // view 0 primary
	net.Crash(g.nodes[1]) // view 1 primary
	if p := g.Primary(); p != g.nodes[0] {
		t.Fatalf("a fresh request goes to node %d, want view 0's primary %d", p, g.nodes[0])
	}
	var res *Result
	g.Submit(client, req("double-crash", 1000), func(r Result) { res = &r })
	k.RunFor(3 * time.Minute)
	if res == nil {
		t.Fatal("two cascaded view changes did not recover liveness")
	}
	if p := g.Primary(); p != g.nodes[2] {
		t.Fatalf("a fresh request goes to node %d, want view 2's primary %d", p, g.nodes[2])
	}
	// All survivors executed the same update.
	for i := 2; i < 7; i++ {
		ex := order[i]
		if len(ex) != 1 || ex[0] != guid.FromData([]byte("double-crash")) {
			t.Fatalf("replica %d executed %v", i, ex)
		}
	}
}

func TestUpdatesAfterViewChangeKeepSerializing(t *testing.T) {
	k, net, g, client := tier(t, 7, 2, 41)
	order := record(g)
	net.Crash(g.nodes[0])
	done := 0
	for i := 0; i < 3; i++ {
		g.Submit(client, req(string(rune('a'+i)), 500), func(Result) { done++ })
	}
	k.RunFor(3 * time.Minute)
	if done != 3 {
		t.Fatalf("committed %d/3 after view change", done)
	}
	// Order agreement among survivors.
	base := order[1]
	for i := 2; i < 7; i++ {
		ex := order[i]
		if len(ex) != len(base) {
			t.Fatalf("replica %d executed %d, want %d", i, len(ex), len(base))
		}
		for j := range ex {
			if ex[j] != base[j] {
				t.Fatalf("order divergence at %d", j)
			}
		}
	}
}

func TestCrashRecoveryMidStream(t *testing.T) {
	// Primary crashes AFTER some commits; later updates need the view
	// change, and the already-executed prefix stays intact.
	k, net, g, client := tier(t, 7, 2, 42)
	order := record(g)
	first := false
	g.Submit(client, req("early", 500), func(Result) { first = true })
	k.RunFor(10 * time.Second)
	if !first {
		t.Fatal("setup commit failed")
	}
	net.Crash(g.nodes[0])
	second := false
	g.Submit(client, req("late", 500), func(Result) { second = true })
	k.RunFor(3 * time.Minute)
	if !second {
		t.Fatal("post-crash update did not commit")
	}
	for i := 1; i < 7; i++ {
		ex := order[i]
		if len(ex) != 2 || ex[0] != guid.FromData([]byte("early")) || ex[1] != guid.FromData([]byte("late")) {
			t.Fatalf("replica %d executed %v", i, ex)
		}
	}
}

// TestNewViewOrderTakesOnlyWhatVotesProve: on a 4-member tier (f = 1)
// voting view 2 in, one vote cannot move the order's start, and a
// certificate counts only if it is from a view below 2 and names two
// distinct members other than its view's primary.
func TestNewViewOrderTakesOnlyWhatVotesProve(t *testing.T) {
	x, y := req("x", 10), req("y", 10)
	cert := func(view, seq uint64, r Request, prepares ...int) preparedCert {
		return preparedCert{PrePrepare: prePrepareMsg{View: view, Seq: seq, Req: r}, Prepares: prepares}
	}
	vote := func(i int, floor, cursor uint64, certs ...preparedCert) *viewChangeMsg {
		return &viewChangeMsg{NewView: 2, Replica: i, Floor: floor, Cursor: cursor, Prepared: certs}
	}
	// Member 3 claims to have run a million sequence numbers past the
	// others: with only f+1 = 2 votes needed to back a start, its alone
	// cannot, and the new primary leaves it out.
	if _, _, _, ok := newViewOrder([]*viewChangeMsg{vote(0, 0, 5), vote(1, 0, 5), nil, vote(3, 1<<20, 1<<20+5)}, 2, 1); ok {
		t.Fatal("a start one vote claims was taken")
	}
	votes := []*viewChangeMsg{
		vote(0, 0, 5, cert(0, 5, y, 1, 1), cert(1, 6, y, 2, 3), cert(2, 7, y, 0, 3)),
		vote(1, 0, 5, cert(0, 5, x, 2, 3), cert(0, 6, x, 0, 3), cert(0, 7, x, 1, 2)),
		vote(2, 0, 5, cert(0, 8, y, 0, 2), cert(0, windowSpan, y, 1, 2)),
		nil,
	}
	start, _, order, ok := newViewOrder(votes, 2, 1)
	if !ok || start != 0 || len(order) != 8 {
		t.Fatalf("start %d, %d entries, ok %v; want 0, 8, true", start, len(order), ok)
	}
	// Seq 5: y's certificate repeats member 1, x's holds.  Seq 6: x's
	// names view 0's primary, y's from view 1 holds.  Seq 7: y's is from
	// view 2 itself, x's holds.  Seq 8's names view 0's primary again,
	// and one windowSpan above the start is ignored, so the order ends
	// at 7.
	for seq, want := range map[int]guid.GUID{5: x.ID, 6: y.ID, 7: x.ID} {
		if order[seq].ID != want {
			t.Errorf("seq %d holds %s, want %s", seq, order[seq].ID.Short(), want.Short())
		}
	}
}

// TestNewViewOnlyFromItsPrimary: a new-view message re-sent by a member
// other than its view's primary does not install the view.
func TestNewViewOnlyFromItsPrimary(t *testing.T) {
	k, _, g, _, _ := preparedAtFour(t)
	k.RunFor(150 * time.Millisecond) // member 1 has installed view 1, member 3 has not
	nm, r := g.replicas[1].newView, g.replicas[3]
	if nm == nil || r.view != 0 {
		t.Fatalf("setup: new-view %v, member 3 in view %d", nm != nil, r.view)
	}
	r.handle(simnet.Message{From: g.nodes[2], To: r.node(), Kind: kindViewChange, Payload: nm})
	if r.view != 0 {
		t.Fatal("a new-view from a member other than the view's primary installed it")
	}
	// From the primary, but with a vote filed under another member, or
	// with one vote's floor far above what the others ran.
	misfiled := &newViewMsg{Tag: nm.Tag, View: 1, Votes: []*viewChangeMsg{nm.Votes[1], nil, nm.Votes[2], nm.Votes[3]}}
	far := *nm.Votes[3]
	far.Floor, far.Cursor, far.Executed = 1<<20, 1<<20, nil
	unbacked := &newViewMsg{Tag: nm.Tag, View: 1, Votes: []*viewChangeMsg{nil, nm.Votes[1], nm.Votes[2], &far}}
	for _, bad := range []*newViewMsg{misfiled, unbacked} {
		r.handle(simnet.Message{From: g.nodes[1], To: r.node(), Kind: kindViewChange, Payload: bad})
		if r.view != 0 {
			t.Fatalf("new-view %+v installed view %d", bad, r.view)
		}
	}
	r.handle(simnet.Message{From: g.nodes[1], To: r.node(), Kind: kindViewChange, Payload: nm})
	if r.view != 1 {
		t.Fatalf("the primary's new-view left member 3 in view %d", r.view)
	}
}

// dropKindTo is a fault plan that drops every message of one kind to
// one node.
type dropKindTo struct {
	kind string
	to   simnet.NodeID
}

func (d dropKindTo) FilterSend(m simnet.Message, _ time.Duration) (bool, time.Duration) {
	return m.Kind == d.kind && m.To == d.to, 0
}

// kept lists the sequence numbers a member ran and still holds a slot
// for.
func kept(r *replica) (seqs []uint64) {
	for seq := r.base; seq < r.execCursor; seq++ {
		if r.lookup(seq) != nil {
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

// TestMissedPayloadComesWithTheNewView: member 3 misses the pre-prepare
// of x, which the other three commit and run at sequence number 2 and
// keep the slot of, lacking member 3's commit.  The slot survives the
// view change.  In the next view the order names x by ID alone, and the
// new primary's new-view carries its payload, so member 3 runs x there
// without a client retransmission; its commit is the last one, and
// every member frees the slot.
func TestMissedPayloadComesWithTheNewView(t *testing.T) {
	k, net, g, client := tier(t, 4, 1, 31)
	order := record(g)
	commitN(t, g, client, "u", 2)
	net.SetFaultPlan(dropKindTo{kindPrePrepare, g.nodes[3]})
	x := req("x", 100)
	var res *Result
	g.Submit(client, x, func(r Result) { res = &r })
	k.RunFor(time.Second)
	net.SetFaultPlan(nil)
	if res == nil || res.Seq != 2 || g.replicas[3].execCursor != 2 {
		t.Fatalf("setup: result %+v, member 3 executed through %d", res, g.replicas[3].execCursor)
	}
	for _, r := range g.replicas[:3] {
		if got := kept(r); len(got) != 1 || got[0] != 2 || r.lookup(2).req.ID != x.ID {
			t.Fatalf("member %d keeps %v, want x at 2", r.id, got)
		}
	}
	for _, r := range g.replicas[1:] {
		r.voteView(1)
	}
	k.RunFor(100 * time.Millisecond) // member 1 installed view 1; member 3's commit is not out yet
	if r := g.replicas[1]; r.view != 1 || len(kept(r)) != 1 {
		t.Fatalf("the new primary is in view %d and keeps %v, want x carried across", r.view, kept(r))
	}
	k.RunFor(time.Second)
	if nm := g.replicas[3].newView; nm == nil || len(nm.Payloads) != 1 || nm.Payloads[0].ID != x.ID {
		t.Fatalf("member 3 installed new-view %+v, want x's payload in it", nm)
	}
	if got := order[3]; len(got) != 3 || got[2] != x.ID {
		t.Fatalf("member 3 ran %d requests, want x third", len(got))
	}
	for _, r := range g.replicas {
		if got := kept(r); len(got) != 0 || r.slotCount() != 0 {
			t.Errorf("member %d still keeps %v, %d slots", r.id, got, r.slotCount())
		}
	}
	if d := g.Divergences(); d != 0 {
		t.Fatalf("%d divergent executions", d)
	}
}

// TestPayloadComesWithARetransmission: when no member kept the slot, and
// so the payload, of a request a new view names by ID alone, the member
// that missed it stalls there until the client's retransmission brings
// it.
func TestPayloadComesWithARetransmission(t *testing.T) {
	k, net, g, client := tier(t, 4, 1, 31)
	order := record(g)
	commitN(t, g, client, "u", 2)
	net.SetFaultPlan(dropKindTo{kindPrePrepare, g.nodes[3]})
	x := req("x", 100)
	x.Client = client
	g.Submit(client, x, nil)
	k.RunFor(time.Second)
	net.SetFaultPlan(nil)
	for _, r := range g.replicas[:3] {
		r.free(2)
	}
	for _, r := range g.replicas[1:] {
		r.voteView(1)
	}
	k.RunFor(time.Second)
	r := g.replicas[3]
	if s := r.lookup(2); r.view != 1 || r.execCursor != 2 || s == nil || !s.committed || s.req.full() {
		t.Fatalf("member 3 in view %d executed through %d, slot 2 %+v; want it stalled on x by ID", r.view, r.execCursor, s)
	}
	r.onRequest(x)
	if got := order[3]; r.execCursor != 3 || len(got) != 3 || got[2] != x.ID {
		t.Fatalf("after the retransmission member 3 executed through %d", r.execCursor)
	}
}

// TestKeptStaysInTheCheckpointWindow: with one member down, every
// execution lacks its commit, and a member keeps the slots of its
// checkpoint window only: the log starts at the floor.
func TestKeptStaysInTheCheckpointWindow(t *testing.T) {
	_, net, g, client := tier(t, 4, 1, 33)
	net.Crash(g.nodes[3])
	commitN(t, g, client, "u", checkpointWindow+10)
	for _, r := range g.replicas[:3] {
		if got := kept(r); len(got) != checkpointWindow || got[0] != r.floor || r.base != r.floor {
			t.Fatalf("member %d keeps %d slots from %d, log from %d; want %d from its floor %d",
				r.id, len(got), got[0], r.base, checkpointWindow, r.floor)
		}
	}
}

// dropKindFrom is a fault plan that drops every message of one kind
// from one node.
type dropKindFrom struct {
	kind string
	from simnet.NodeID
}

func (d dropKindFrom) FilterSend(m simnet.Message, _ time.Duration) (bool, time.Duration) {
	return m.Kind == d.kind && m.From == d.from, 0
}

// TestExecutedSlotFreedAtItsLastCommit: member 3's commits are lost, so
// the others keep the slot of what they ran.  A late commit with another
// digest, from member 2, whose matching one arrived, neither frees the
// slot nor takes member 2's commit back; member 3's matching one is the
// last, and the slot goes back to the pool.
func TestExecutedSlotFreedAtItsLastCommit(t *testing.T) {
	_, net, g, client := tier(t, 4, 1, 34)
	net.SetFaultPlan(dropKindFrom{kindCommit, g.nodes[3]})
	commitN(t, g, client, "u", 1)
	net.SetFaultPlan(nil)
	r := g.replicas[0]
	if s := r.lookup(0); r.execCursor != 1 || s == nil || s.commits() != 0b0111 {
		t.Fatalf("setup: member 0 executed through %d and keeps slot 0 as %+v", r.execCursor, s)
	}
	other := req("other", 100)
	r.onCommit(voteMsg{Tag: g.tag, View: r.view, Seq: 0, Digest: other.ID, Replica: 2})
	if s := r.lookup(0); s == nil || s.commits() != 0b0111 {
		t.Fatalf("after a commit with another digest slot 0 is %+v", s)
	}
	r.onCommit(voteMsg{Tag: g.tag, View: r.view, Seq: 0, Digest: req("u0", 100).ID, Replica: 3})
	if r.lookup(0) != nil || len(r.slotFree) != 1 {
		t.Fatalf("after the last commit slot 0 is %+v, %d slots pooled", r.lookup(0), len(r.slotFree))
	}
}
