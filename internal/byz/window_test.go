package byz

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
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
// number outside the watermarks — behind the floor, or windowSpan or
// more above it — in any of the three phases is dropped and counted: it
// gets no slot, and the log is unchanged.  One at the high edge is in
// range, and the log grows to it and no further.
func TestStaleAndFarSeqStayOutOfTheWindow(t *testing.T) {
	_, _, g, client := tier(t, 4, 1, 21)
	reg := obs.NewRegistry()
	g.Instrument(reg, nil)
	commitN(t, g, client, "warm", checkpointWindow+36)
	r := g.replicas[1]
	if r.floor != 36 {
		t.Fatalf("floor = %d, want 36", r.floor)
	}
	before, slots := len(r.window), r.slotCount()
	out := []uint64{0, 7, r.floor - 1, r.floor + windowSpan, 1 << 40, math.MaxUint64}
	for i, seq := range out {
		forged := req(fmt.Sprintf("forged%d", i), 100)
		r.onPrepare(voteMsg{View: r.view, Seq: seq, Digest: forged.ID, Replica: 2})
		r.onCommit(voteMsg{View: r.view, Seq: seq, Digest: forged.ID, Replica: 3})
		r.onPrePrepare(prePrepareMsg{View: r.view, Seq: seq, Req: forged})
	}
	if len(r.window) != before || r.slotCount() != slots || len(r.reqs) != 0 {
		t.Fatalf("out-of-range sequence numbers moved the log: %d -> %d wide, %d -> %d slots, %d records",
			before, len(r.window), slots, r.slotCount(), len(r.reqs))
	}
	dropped := reg.CounterValue(obs.NodeWide, "byz", "out_of_window")
	if dropped != int64(3*len(out)) {
		t.Fatalf("byz.out_of_window = %d, want %d", dropped, 3*len(out))
	}
	r.onPrepare(voteMsg{View: r.view, Seq: r.floor + windowSpan - 1, Replica: 2})
	if end := r.base + uint64(len(r.window)); end != r.floor+windowSpan {
		t.Fatalf("the log ends at %d, want the high mark %d", end, r.floor+windowSpan)
	}
	// The tier still works, and drops nothing of its own.
	commitN(t, g, client, "after", 1)
	if got := reg.CounterValue(obs.NodeWide, "byz", "out_of_window"); got != dropped {
		t.Fatalf("byz.out_of_window = %d after an honest commit, want %d", got, dropped)
	}
}

// TestExecutedSeqIsInert: against a sequence number this replica has
// executed inside its checkpoint window — its slot freed, or kept for a
// missing commit — a late pre-prepare, prepare or commit, a vote
// refresh, and a retransmission of the request it ran send nothing but
// the one re-reply, refresh no vote and — however long the tier then
// waits — vote no view change.
func TestExecutedSeqIsInert(t *testing.T) {
	k, net, g, client := tier(t, 4, 1, 26)
	reg := obs.NewRegistry()
	g.Instrument(reg, nil)
	commitN(t, g, client, "u", checkpointWindow+9)
	net.SetFaultPlan(dropKindFrom{kindCommit, g.nodes[3]})
	g.Submit(client, req(fmt.Sprint("u", checkpointWindow+9), 100), nil)
	k.RunFor(time.Second)
	net.SetFaultPlan(nil)
	r := g.replicas[1]
	if r.lookup(r.floor) != nil || r.lookup(r.execCursor-1) == nil {
		t.Fatalf("setup: slots %d and %d are %v and %v, want freed and kept", r.floor, r.execCursor-1, r.lookup(r.floor), r.lookup(r.execCursor-1))
	}
	for _, seq := range []uint64{r.floor, r.execCursor - 1} {
		ran := req(fmt.Sprintf("u%d", seq), 100)
		ran.Tag, ran.Client = g.tag, client
		late := req(fmt.Sprintf("late%d", seq), 100)
		got := sends(net, func() {
			r.onPrePrepare(prePrepareMsg{Tag: g.tag, View: r.view, Seq: seq, Req: late})
			r.onPrepare(voteMsg{Tag: g.tag, View: r.view, Seq: seq, Digest: ran.ID, Replica: 2})
			r.onCommit(voteMsg{Tag: g.tag, View: r.view, Seq: seq, Digest: late.ID, Replica: 3})
			r.refreshVotes(seq)
			r.onRequest(ran)
		})
		if len(got) != 1 || got[kindReply] != 1 {
			t.Fatalf("seq %d: late traffic for an executed slot sent %v, want one re-reply", seq, got)
		}
		if r.reqs[late.ID] != nil {
			t.Fatalf("seq %d: a late pre-prepare started a record", seq)
		}
	}
	k.RunFor(3 * requestTimeout)
	for name, want := range map[string]int64{"re_replies": 2, "vote_refreshes": 0, "view_vote_timeouts": 0, "view_installs": 0} {
		if got := reg.CounterValue(obs.NodeWide, "byz", name); got != want {
			t.Errorf("byz.%s = %d, want %d", name, got, want)
		}
	}
	if len(r.viewVotes) != 0 {
		t.Fatalf("view-change votes cast: %v", r.viewVotes)
	}
}

// TestForgedSeqCannotPinMemory: a lying primary pre-prepares a thousand
// requests at absurd sequence numbers to one backup.  Each lies past the
// backup's high watermark, so none gets a slot or a request record — the
// naive seq-floor index would have asked for 2^50 entries — and each is
// counted.  The view change that deposes the primary finds nothing of
// them.
func TestForgedSeqCannotPinMemory(t *testing.T) {
	k, net, g, _ := tier(t, 4, 1, 22)
	reg := obs.NewRegistry()
	g.Instrument(reg, nil)
	const forged = 1000
	for i := 0; i < forged; i++ {
		rq := req(fmt.Sprintf("forged%d", i), 100)
		rq.Tag = g.tag
		pp := prePrepareMsg{Tag: g.tag, View: 0, Seq: 1<<50 + uint64(i)<<20, Req: rq}
		net.Send(g.nodes[0], g.nodes[1], kindPrePrepare, pp, rq.Size+CHeader)
	}
	k.RunFor(time.Second)
	r := g.replicas[1]
	if len(r.window) != 0 || len(r.slotFree) != 0 || len(r.reqs) != 0 {
		t.Fatalf("forged sequence numbers made a log %d wide, %d pooled slots and %d records", len(r.window), len(r.slotFree), len(r.reqs))
	}
	if got := reg.CounterValue(obs.NodeWide, "byz", "out_of_window"); got != forged {
		t.Fatalf("byz.out_of_window = %d, want %d", got, forged)
	}
	// The honest members vote member 1, the deposed primary's backup, in.
	for _, q := range g.replicas[1:] {
		q.voteView(1)
	}
	k.RunFor(time.Second)
	if r.view != 1 || r.slotCount() != 0 {
		t.Fatalf("view %d: %d slots after the view change", r.view, r.slotCount())
	}
}

// TestNewViewPastTheHighMark: a member that missed more than
// windowSpan-checkpointWindow executions installs a new view whose
// order runs past its high watermark.  It takes a slot for each entry
// below the mark, drops and counts the rest, and the other three go on
// ordering without it.
func TestNewViewPastTheHighMark(t *testing.T) {
	k, net, g, client := tier(t, 4, 1, 35)
	reg := obs.NewRegistry()
	g.Instrument(reg, nil)
	const batch, total = 40, windowSpan + 32
	net.Crash(g.nodes[3])
	for i := 0; i < total; i += batch {
		for j := i; j < min(i+batch, total); j++ {
			g.Submit(client, req(fmt.Sprintf("u%d", j), 100), nil)
		}
		k.RunFor(time.Second)
	}
	net.Recover(g.nodes[3])
	r := g.replicas[3]
	if g.replicas[0].execCursor != total || r.execCursor != 0 {
		t.Fatalf("setup: members executed through %d and %d", g.replicas[0].execCursor, r.execCursor)
	}
	for _, q := range g.replicas[1:] {
		q.voteView(1)
	}
	k.RunFor(time.Second)
	// The order runs over the others' checkpoint window, [total-64, total):
	// 32 entries below member 3's high mark, windowSpan, and 32 at or past it.
	if r.view != 1 || r.slotCount() != 32 || r.lookup(windowSpan-1) == nil || r.lookup(windowSpan) != nil {
		t.Fatalf("member 3 in view %d holds %d slots", r.view, r.slotCount())
	}
	if got := reg.CounterValue(obs.NodeWide, "byz", "out_of_window"); got != 32 {
		t.Fatalf("byz.out_of_window = %d, want 32", got)
	}
	commitN(t, g, client, "after", 1)
	if g.replicas[1].execCursor != total+1 || r.execCursor != 0 {
		t.Fatalf("after the view: members executed through %d and %d", g.replicas[1].execCursor, r.execCursor)
	}
}

// TestPreparedSlotKeepsItsSeqAcrossAView: a request that every member
// prepared at sequence number 4, whose commits were all lost, keeps 4
// in the next view and executes there; it is not returned to pending.
// Sequence number 3, pre-prepared to one backup only and so prepared
// nowhere, becomes a null request.  (The view change used to recycle
// every uncommitted slot, and the new primary re-proposed the request
// at the execution cursor, 3.)
func TestPreparedSlotKeepsItsSeqAcrossAView(t *testing.T) {
	k, _, g, x, ran := preparedAtFour(t)
	k.RunFor(150 * time.Millisecond) // member 1 has its 2f+1 votes; the others not yet its new-view
	nv := g.replicas[1]
	if nv.view != 1 || nv.nextSeq != 5 {
		t.Fatalf("the new primary is in view %d and proposes at %d, want view 1 at 5", nv.view, nv.nextSeq)
	}
	if s, rec := nv.lookup(4), nv.reqs[x.ID]; s == nil || s.digest != x.ID || rec == nil || rec.pending || !rec.assigned || rec.seq != 4 {
		t.Fatalf("after the new view, slot 4 is %+v and x's record %+v", s, rec)
	}
	if s := nv.lookup(3); s == nil || s.digest != guid.Zero {
		t.Fatalf("slot 3 is %+v, want a null request", s)
	}
	k.RunFor(time.Second)
	for i, r := range g.replicas {
		if r.view != 1 || r.execCursor != 5 {
			t.Fatalf("member %d: view %d, executed through %d", i, r.view, r.execCursor)
		}
		if got := ran[i][len(ran[i])-1]; got != (executed{4, x.ID}) {
			t.Fatalf("member %d last ran %v, want x at 4", i, got)
		}
	}
	if d := g.Divergences(); d != 0 {
		t.Fatalf("%d divergent executions", d)
	}
}

// preparedAtFour sets up a view change on a 4-member tier that executed
// three requests: request x is prepared at sequence number 4 on every
// member and committed on none (every commit is lost), a request
// pre-prepared at 3 only to member 1 is prepared nowhere, and members 1
// to 3 then vote view 1 in.  It returns before the votes are delivered,
// with every member's executions, in order, in ran.
func preparedAtFour(t *testing.T) (k *sim.Kernel, net *simnet.Network, g *Group, x Request, ran [][]executed) {
	t.Helper()
	k, net, g, client := tier(t, 4, 1, 23)
	for i := range g.replicas {
		ran = append(ran, nil)
		g.SetExecutor(i, func(seq uint64, r Request) { ran[i] = append(ran[i], executed{seq, r.ID}) })
	}
	commitN(t, g, client, "done", 3)
	net.SetFaultPlan(dropKind(kindCommit))
	lost := req("lost", 100)
	x = req("x", 100)
	x.Client = client
	g.replicas[1].onPrePrepare(prePrepareMsg{Tag: g.tag, View: 0, Seq: 3, Req: lost})
	p := g.replicas[0]
	p.nextSeq = 4
	p.propose(x)
	k.RunFor(time.Second)
	for _, r := range g.replicas {
		if s := r.lookup(4); s == nil || !s.prepared || s.committed {
			t.Fatalf("setup: member %d's slot 4 is %+v, want prepared and not committed", r.id, s)
		}
	}
	net.SetFaultPlan(nil)
	for _, r := range g.replicas[1:] {
		r.voteView(1)
	}
	return k, net, g, x, ran
}

// TestDivergenceCounted: a member that ran another request at a
// sequence number than the rest do is counted once by each member that
// executes there after it, and by nobody before.
func TestDivergenceCounted(t *testing.T) {
	_, _, g, client := tier(t, 4, 1, 27)
	commitN(t, g, client, "u", 2)
	if d := g.Divergences(); d != 0 {
		t.Fatalf("%d divergent executions on a tier that kept one order", d)
	}
	r := g.replicas[3]
	y := req("y", 100)
	y.Client = client
	s := r.slot(2)
	s.req, s.hasReq, s.digest, s.prepared, s.committed = y, true, y.ID, true, true
	r.executeReady()
	if d := g.Divergences(); d != 0 {
		t.Fatalf("%d divergent executions before any other member ran sequence number 2", d)
	}
	commitN(t, g, client, "z", 1)
	if d := g.Divergences(); d != 3 {
		t.Fatalf("%d divergent executions, want one for each of the three members that ran z at 2", d)
	}
}

// dropKind is a fault plan that drops every message of one kind.
type dropKind string

func (d dropKind) FilterSend(m simnet.Message, _ time.Duration) (bool, time.Duration) {
	return m.Kind == string(d), 0
}

// TestRecordsAndTimersRetire: what a replica keeps tracks requests in
// flight, not requests served.  After ten thousand executions on one
// tier, fifty at a time, no replica holds a request record or a slot,
// neither pool holds more than were ever in flight at once, and the
// done index holds exactly the last doneWindow IDs.  Timers leave the
// kernel the moment their request executes — a second after the last
// commit the queue is empty, where it used to hold five timeouts per
// recent request — and the client keeps no state at the tier and its
// node no reply route.
func TestRecordsAndTimersRetire(t *testing.T) {
	k, _, g, client := tier(t, 4, 1, 24)
	const batch, total = 50, 10000
	for i := 0; i < total; i += batch {
		done := 0
		for j := i; j < i+batch; j++ {
			g.Submit(client, req(fmt.Sprintf("u%d", j), 100), func(Result) { done++ })
		}
		k.RunFor(time.Second)
		if done != batch {
			t.Fatalf("batch at %d: committed %d/%d", i, done, batch)
		}
	}
	if n := k.Pending(); n != 0 {
		t.Fatalf("%d events still queued after every request resolved", n)
	}
	if st := k.Stats(); st.Stopped < 4*total {
		t.Fatalf("only %d timers stopped over %d requests (3 backup timers + 1 retransmission each)", st.Stopped, total)
	}
	for _, r := range g.replicas {
		if r.execCursor != total {
			t.Fatalf("replica %d executed %d, want %d", r.id, r.execCursor, total)
		}
		if len(r.reqs) != 0 || r.slotCount() != 0 {
			t.Fatalf("replica %d keeps %d request records and %d slots with nothing in flight", r.id, len(r.reqs), r.slotCount())
		}
		if len(r.recFree) == 0 || len(r.recFree) > batch || len(r.slotFree) == 0 || len(r.slotFree) > batch {
			t.Fatalf("replica %d pools %d records and %d slots, want 1..%d of each", r.id, len(r.recFree), len(r.slotFree), batch)
		}
		if len(r.done.ids) != doneWindow || r.isDone(guid.FromData([]byte("u0"))) || !r.isDone(guid.FromData([]byte(fmt.Sprintf("u%d", total-doneWindow)))) {
			t.Fatalf("replica %d's done index holds %d IDs, not the last %d", r.id, len(r.done.ids), doneWindow)
		}
	}
	if cs := g.clients[client]; cs != nil || len(g.reqFree) == 0 || len(g.reqFree) > batch {
		t.Fatalf("client keeps state %v, pool %d", cs, len(g.reqFree))
	}
	if n := replyRoutes(g, client); n != 0 {
		t.Fatalf("client node keeps %d reply routes with nothing outstanding", n)
	}
}

// TestLateRetransmissionAfterEviction pins the one behaviour the
// stopped timers changed.  A backup's timer for X is stopped when X
// executes.  If doneWindow further executions then evict X's record
// before that timer's deadline, and a very late retransmission of X
// arrives, the backup treats X as new and arms a fresh timer — and only
// that one can vote.  (The unstopped timer used to fire at the old
// deadline, find X pending again, and vote a view change early.)
//
// Up to that eviction — X and doneWindow-1 later executions — a
// retransmission of X is answered with exactly one re-reply and nothing
// else.
func TestLateRetransmissionAfterEviction(t *testing.T) {
	k, net, g, client := tier(t, 4, 1, 25)
	x := req("x", 100)
	g.Submit(client, x, nil)
	k.RunFor(time.Second) // X executed; its backup timers were due at ~3.1 s
	done := 0
	fill := func(from, to int, d time.Duration) {
		for i := from; i < to; i++ {
			g.Submit(client, req(fmt.Sprintf("filler%d", i), 100), func(Result) { done++ })
		}
		k.RunFor(d)
	}
	fill(0, doneWindow-1, 800*time.Millisecond)
	r := g.replicas[1]
	x.Tag, x.Client = g.tag, client
	if r.execCursor != doneWindow || !r.isDone(x.ID) {
		t.Fatalf("setup: %d executions, X done %v", r.execCursor, r.isDone(x.ID))
	}
	if got := sends(net, func() { r.onRequest(x) }); len(got) != 1 || got[kindReply] != 1 {
		t.Fatalf("a retransmission within the horizon sent %v, want one re-reply", got)
	}
	fill(doneWindow-1, doneWindow, 700*time.Millisecond)
	if done != doneWindow || r.isDone(x.ID) || r.reqs[x.ID] != nil {
		t.Fatalf("setup: %d/%d fillers committed, X done %v, record %v", done, doneWindow, r.isDone(x.ID), r.reqs[x.ID])
	}
	// At 2.5 s: a fresh timer due at 5.5 s, and no reply.
	if got := sends(net, func() { r.onRequest(x) }); len(got) != 0 {
		t.Fatalf("a retransmission past the horizon sent %v", got)
	}
	k.RunUntil(4 * time.Second)
	if r.viewVotes[1][r.id] != nil {
		t.Fatal("a timer stopped at execution still voted at its old deadline")
	}
	k.RunUntil(6 * time.Second)
	if r.viewVotes[1][r.id] == nil {
		t.Fatal("the fresh timer never voted")
	}
}

// replyRoutes is how many registrations the client's node holds for the
// tier's tag — its reply route, when the node is not a tier member.
func replyRoutes(g *Group, client simnet.NodeID) int {
	return g.net.Node(client).Handlers(simnet.DemuxKey(g.tag))
}

// TestClientStateFollowsOutstandingRequests: one client node writes to
// two tiers.  While the second tier is cut off, the first one's request
// resolves and the client's state and route at that tier go with it;
// the second tier's stay for as long as its request is outstanding.  A
// late reply to the first tier drops, and another client's Submit of
// the ID this client resolved is still served.
func TestClientStateFollowsOutstandingRequests(t *testing.T) {
	k := sim.NewKernel(26)
	net := simnet.New(k, simnet.Config{BaseLatency: 100 * time.Millisecond})
	tiers := make([]*Group, 2)
	for i := range tiers {
		var nodes []simnet.NodeID
		for j := 0; j < 4; j++ {
			nodes = append(nodes, net.AddNode(0, 0).ID)
		}
		g, err := NewGroup(net, nodes, 1, guid.FromData([]byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		tiers[i] = g
	}
	a, b := tiers[0], tiers[1]
	client, other := net.AddNode(0, 0).ID, net.AddNode(0, 0).ID
	for _, n := range b.nodes {
		net.SetPartition(n, 1)
	}
	done := map[string]int{}
	submit := func(g *Group, from simnet.NodeID, r Request, name string) {
		g.Submit(from, r, func(Result) { done[name]++ })
	}
	x := req("x", 100)
	submit(a, client, x, "a")
	submit(b, client, req("y", 100), "b")
	if a.clients[client] == nil || b.clients[client] == nil || replyRoutes(a, client) != 1 || replyRoutes(b, client) != 1 {
		t.Fatal("setup: the client has no state or route at a tier it has a request outstanding at")
	}
	k.RunFor(time.Second)
	if done["a"] != 1 || done["b"] != 0 {
		t.Fatalf("setup: callbacks %v, want a's only", done)
	}
	if a.clients[client] != nil || replyRoutes(a, client) != 0 {
		t.Fatalf("the resolved tier keeps state %v and %d routes", a.clients[client], replyRoutes(a, client))
	}
	if b.clients[client] == nil || len(b.clients[client].pending) != 1 || replyRoutes(b, client) != 1 {
		t.Fatal("the outstanding tier lost the client's state or route")
	}
	// A fourth reply to x, after the quorum: nothing takes it.
	net.Send(a.nodes[3], client, kindReply, replyMsg{Tag: a.tag, Seq: 0, ID: x.ID, Digest: x.ID, From: 3}, CReply)
	k.RunFor(time.Second)
	if done["a"] != 1 || a.clients[client] != nil || replyRoutes(a, client) != 0 {
		t.Fatalf("a late reply fired a callback (%v) or brought back state or a route", done)
	}
	submit(a, other, x, "other")
	k.RunFor(time.Second)
	if done["other"] != 1 || a.clients[other] != nil {
		t.Fatalf("another client's Submit of a resolved ID: %d callbacks, state %v", done["other"], a.clients[other])
	}
	net.ClearPartitions()
	k.RunFor(10 * time.Second) // the client's retransmission reaches b
	if done["b"] != 1 || b.clients[client] != nil || replyRoutes(b, client) != 0 {
		t.Fatalf("after the heal: callbacks %v, state %v, %d routes", done, b.clients[client], replyRoutes(b, client))
	}
	if len(a.clients)+len(b.clients) != 0 {
		t.Fatalf("clients left at the tiers: %d and %d", len(a.clients), len(b.clients))
	}
}

// TestHeapPerResolvedClient pins what a (client, tier) pair retains
// once its one request resolved: each of the four members' done index
// entry for the executed request, and nothing else — the client's
// state and reply route went with its last outstanding request, and
// the client side remembers nothing of it.  The difference between
// tiers that served one request from each of clients/2 and of clients
// nodes is ≈ 136 B a pair (173 B while the tier also kept a done index
// of its clients' requests, 427 B while every pair kept its state,
// route and a done-set for the run); the bound is that plus 25 %.
func TestHeapPerResolvedClient(t *testing.T) {
	const tiers, clients, batch, bound = 20, 256, 16, 136 * 1.25
	live := func(writers int) int64 {
		k := sim.NewKernel(8)
		net := simnet.New(k, simnet.Config{BaseLatency: 100 * time.Millisecond})
		groups := make([]*Group, tiers)
		for i := range groups {
			var nodes []simnet.NodeID
			for j := 0; j < 4; j++ {
				nodes = append(nodes, net.AddNode(0, 0).ID)
			}
			g, err := NewGroup(net, nodes, 1, guid.FromData([]byte(fmt.Sprint("tier", i))))
			if err != nil {
				t.Fatal(err)
			}
			groups[i] = g
		}
		var cs []simnet.NodeID
		for c := 0; c < clients; c++ {
			cs = append(cs, net.AddNode(0, 0).ID)
		}
		resolved := 0
		for c := 0; c < writers; c += batch {
			for i, g := range groups {
				for j := c; j < c+batch; j++ {
					g.Submit(cs[j], req(fmt.Sprintf("t%d-c%d", i, j), 100), func(Result) { resolved++ })
				}
			}
			k.RunFor(time.Second)
		}
		for _, g := range groups {
			if len(g.clients) != 0 {
				t.Fatalf("a tier keeps %d clients with nothing outstanding", len(g.clients))
			}
		}
		if resolved != tiers*writers {
			t.Fatalf("resolved %d of %d", resolved, tiers*writers)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(groups)
		runtime.KeepAlive(net)
		return int64(ms.HeapAlloc)
	}
	half, full := live(clients/2), live(clients)
	perPair := float64(full-half) / (tiers * clients / 2)
	t.Logf("live heap %.2f MB with %d clients resolved a tier, %.2f MB with %d: %+.1f B per resolved (client, tier) pair",
		float64(half)/(1<<20), clients/2, float64(full)/(1<<20), clients, perPair)
	if perPair > bound {
		t.Fatalf("%+.1f B of live heap per resolved (client, tier) pair, bound %.0f", perPair, bound)
	}
}
