package byz

import (
	"slices"
	"sort"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// slot tracks agreement state for one un-executed (view, seq).  Votes
// are recorded with the digest they carried; only votes matching the
// pre-prepared request's digest count toward quorums, which both
// tolerates out-of-order arrival and defeats lying replicas.
//
// Vote state is one flat per-replica array, not maps: the tier is small
// (3f+1, typically 4–7), and a pooled slot reuses it across sequence
// numbers — the per-slot map allocations used to be a top heap consumer
// in soak profiles.
type slot struct {
	req       Request
	digest    guid.GUID
	hasReq    bool
	prepared  bool
	committed bool
	votes     []vote // indexed by replica id
}

// vote is one replica's prepare and commit in a slot, each with the
// digest it carried.
type vote struct {
	prepare, commit      guid.GUID
	prepVoted, commVoted bool
}

// inlineVotes is the largest tier whose slots carry their votes inline:
// four replicas, f = 1, every soak world's tier.
const inlineVotes = 4

// slotAndVotes lays a slot out with its votes, so the slot is one
// allocation.
type slotAndVotes struct {
	slot
	inline [inlineVotes]vote
}

func newSlot(n int) *slot {
	if n > inlineVotes {
		return &slot{votes: make([]vote, n)}
	}
	b := new(slotAndVotes)
	b.votes = b.inline[:n]
	return &b.slot
}

// quorum counts the prepare votes (commit: the commit votes) matching
// the slot's digest.
func (s *slot) quorum(commit bool) int {
	n := 0
	for i := range s.votes {
		v := &s.votes[i]
		if commit && v.commVoted && v.commit == s.digest || !commit && v.prepVoted && v.prepare == s.digest {
			n++
		}
	}
	return n
}

// reqRec is what a replica knows about one client request in flight,
// from the first copy it sees until it executes.  Its three facts are
// independent — a view change can return a pre-prepared request to
// pending, a retransmission can re-arm a pre-prepared one — and the
// record lives while any of them holds.  That a request executed, and
// at which sequence number, is the replica's done index, not a record.
type reqRec struct {
	// pending: seen (in full or as a digest-only notification) but not
	// pre-prepared in the current view; req is the best copy so far.
	// View-change timeouts and the new primary's re-proposal read it.
	pending bool
	req     Request
	// assigned: pre-prepared at seq and not executed there, so a second
	// copy is not proposed again.
	assigned bool
	seq      uint64
	// armed: a view-change timer was started and has neither fired nor
	// been overtaken by a pre-prepare.  timers holds every one still
	// queued, oldest first, so execution can take them all back.
	armed  bool
	timers []sim.Timer
}

// replica is one member of the primary tier.
type replica struct {
	g     *Group
	id    int
	fault Fault
	exec  Executor

	view    uint64
	nextSeq uint64 // primary only: next sequence number to assign
	// execCursor is the next sequence number to execute, enforcing
	// in-order execution.  Every sequence number below it has executed
	// and keeps no slot (see ran).
	execCursor uint64
	// Agreement state for un-executed sequence numbers: window[i] is the
	// slot of execCursor+i (nil until a message names it), and floor
	// trails the execution cursor by checkpointWindow.  A sequence number
	// outside [floor, floor+windowSpan) — a stale vote from below the
	// checkpoint, or whatever a lying primary cares to forge — gets its
	// slot in far instead, so no message can size the window.
	floor  uint64
	window []*slot
	far    map[uint64]*slot
	// reqs holds one record per request in flight.
	reqs map[guid.GUID]*reqRec
	// done holds the last doneWindow executed request IDs, in execution
	// order, each with the sequence number it executed at, so a client
	// retransmission is answered with a fresh reply (PBFT: "if the
	// replica has already executed the request it re-sends the reply").
	// It is the one copy of those IDs: 28 bytes an ID in its ring plus
	// 2–4 in its table.  An ID pushed out of it stops being done (and
	// assigned): client retransmissions stop within one retry period of
	// execution, so answering them only needs a recent horizon —
	// retaining every ID ever executed made the tier's memory grow with
	// total traffic.
	done doneIndex
	// viewVotes collects view-change votes per proposed view.
	viewVotes map[uint64]map[int]bool
	// installedClaims records which peers claim to have installed which
	// views, for the f+1 catch-up jump.
	installedClaims map[uint64]map[int]bool
	// slotFree and recFree recycle executed and abandoned slots (their
	// votes included) and retired request records, so steady-state
	// agreement allocates no per-slot or per-request state and each pool
	// holds the most this replica ever had in flight.
	slotFree []*slot
	recFree  []*reqRec
}

func newReplica(g *Group, id int) *replica {
	return &replica{
		g:         g,
		id:        id,
		reqs:      make(map[guid.GUID]*reqRec),
		viewVotes: make(map[uint64]map[int]bool),

		installedClaims: make(map[uint64]map[int]bool),
	}
}

// rec returns the record for a request ID, starting one if the replica
// has never heard of it (or has forgotten it).
func (r *replica) rec(id guid.GUID) *reqRec {
	rec := r.reqs[id]
	if rec == nil {
		if k := len(r.recFree); k > 0 {
			rec = r.recFree[k-1]
			r.recFree = r.recFree[:k-1]
		} else {
			rec = &reqRec{}
		}
		r.reqs[id] = rec
	}
	return rec
}

// release forgets a request once nothing is known about it any more,
// and parks its record for reuse.  Timers still queued are left alone:
// they look the ID up when they fire and act on whatever they find.
func (r *replica) release(id guid.GUID, rec *reqRec) {
	if rec.pending || rec.assigned || rec.armed {
		return
	}
	delete(r.reqs, id)
	*rec = reqRec{timers: rec.timers[:0]}
	r.recFree = append(r.recFree, rec)
}

func (r *replica) isPrimary() bool { return int(r.view)%len(r.g.replicas) == r.id }

func (r *replica) node() simnet.NodeID { return r.g.nodes[r.id] }

// send multicasts to every other replica.
func (r *replica) broadcast(kind string, payload any, size int) {
	for i, nd := range r.g.nodes {
		if i == r.id {
			continue
		}
		r.g.net.Send(r.node(), nd, kind, payload, size)
	}
}

func (r *replica) handle(m simnet.Message) {
	switch p := m.Payload.(type) {
	case Request:
		if p.Tag == r.g.tag {
			r.onRequest(p)
		}
	case prePrepareMsg:
		if p.Tag == r.g.tag {
			r.onPrePrepare(p)
		}
	case voteMsg:
		if p.Tag != r.g.tag {
			return
		}
		if m.Kind == kindPrepare {
			r.onPrepare(p)
		} else {
			r.onCommit(p)
		}
	case viewChangeMsg:
		if p.Tag == r.g.tag {
			r.onViewChange(p)
		}
	}
}

func (r *replica) armTimer(id guid.GUID, rec *reqRec) {
	if rec.armed {
		return
	}
	rec.armed = true
	rec.timers = append(rec.timers,
		r.g.net.K.After(requestTimeout, func() { r.requestTimeout(id) }))
}

func (r *replica) onRequest(req Request) {
	if seq, done := r.done.get(req.ID); done {
		// Already executed: re-send the reply (the first one may have been
		// dropped; replies are never otherwise retransmitted).
		r.g.om.reReplies.Inc()
		r.reply(seq, req.ID, req.Client)
		return
	}
	rec := r.rec(req.ID)
	// Any retransmission doubles as a heartbeat: re-push this replica's
	// outstanding view-change votes, which are otherwise sent exactly
	// once and wedge the view change when dropped.
	r.refreshViewVotes()
	if rec.assigned {
		// Pre-prepared but not yet executed: the slot may be stalled on
		// dropped votes, which no one otherwise retransmits.  Re-announce
		// our votes so the client's periodic retransmission heals vote
		// loss, and re-arm the view-change timer so repeated failure
		// escalates to a view change instead of wedging forever.
		r.refreshVotes(rec.seq)
		if !r.isPrimary() {
			r.armTimer(req.ID, rec)
		}
		return
	}
	if r.isPrimary() {
		if req.Payload == nil && req.Size == 0 {
			// Digest-only notification reached the primary (e.g. after a
			// view change); it cannot propose without the payload, but it
			// remembers interest.
			if !rec.pending {
				rec.pending, rec.req = true, req
			}
			return
		}
		r.propose(req, rec)
		return
	}
	// Backup: remember the request and arm the view-change timer
	// (paper: clients send updates to the whole primary tier, Fig 5a).
	// A full-payload copy (client retransmission) upgrades a digest-only
	// notification, so this replica can propose if it becomes primary.
	if !rec.pending || (rec.req.Payload == nil && req.Payload != nil) {
		rec.pending, rec.req = true, req
	}
	r.armTimer(req.ID, rec)
}

// preprepared records that the request now holds seq in this view: it
// is no longer waiting for a primary to pick it up.
func (rec *reqRec) preprepared(seq uint64) {
	rec.assigned, rec.seq = true, seq
	rec.pending, rec.req = false, Request{}
}

// propose assigns the next sequence number and pre-prepares.
func (r *replica) propose(req Request, rec *reqRec) {
	seq := r.nextSeq
	r.nextSeq++
	rec.preprepared(seq)
	pp := prePrepareMsg{Tag: r.g.tag, View: r.view, Seq: seq, Req: req}
	r.broadcast(kindPrePrepare, pp, req.Size+CHeader)
	// The primary acts as having pre-prepared and prepared its own slot.
	if s := r.slot(seq); s != nil {
		s.req, s.hasReq, s.digest = req, true, req.ID
		s.setPrepare(r.id, req.ID)
		r.maybePrepared(s, seq)
	}
}

func (s *slot) setPrepare(id int, d guid.GUID) {
	s.votes[id].prepVoted, s.votes[id].prepare = true, d
}

func (s *slot) setCommit(id int, d guid.GUID) {
	s.votes[id].commVoted, s.votes[id].commit = true, d
}

// windowSpan bounds the sequence window: checkpointWindow sequence
// numbers behind the execution cursor plus every request one object can
// have in flight ahead of it (soak worlds cap an object's unresolved
// writes at 1024).
const windowSpan = 2048

// ran reports whether seq executed inside the checkpoint window,
// [floor, execCursor).  Such a sequence number keeps no slot, because
// against an executed slot a late pre-prepare, prepare or commit, a
// vote refresh or a view-change timer would do nothing; messages naming
// it are dropped.  A seq below the floor is not reported: a stale
// message still gets a far slot, which the next truncation discards.
func (r *replica) ran(seq uint64) bool {
	return seq-r.floor < r.execCursor-r.floor // seq < floor wraps past the span
}

// lookup finds the slot for seq, or nil — always nil once seq ran.  The
// far map is consulted only while it holds something, which an honest
// run's steady state never does.
func (r *replica) lookup(seq uint64) *slot {
	if i := seq - r.execCursor; i < uint64(len(r.window)) { // seq < execCursor wraps past len
		if s := r.window[i]; s != nil {
			return s
		}
	}
	if len(r.far) == 0 {
		return nil
	}
	return r.far[seq]
}

// slot finds or starts the slot for seq; it is nil once seq ran.
func (r *replica) slot(seq uint64) *slot {
	if s := r.lookup(seq); s != nil || r.ran(seq) {
		return s
	}
	var s *slot
	if k := len(r.slotFree); k > 0 {
		s = r.slotFree[k-1]
		r.slotFree = r.slotFree[:k-1]
	} else {
		s = newSlot(len(r.g.replicas))
	}
	if seq-r.floor < windowSpan { // and not ran, so seq >= execCursor
		i := seq - r.execCursor
		for uint64(len(r.window)) <= i {
			r.window = append(r.window, nil)
		}
		r.window[i] = s
	} else {
		if r.far == nil {
			r.far = make(map[uint64]*slot)
		}
		r.far[seq] = s
	}
	return s
}

// putSlot scrubs a retired slot (dropping its payload reference) and
// parks it for reuse.
func (r *replica) putSlot(s *slot) {
	votes := s.votes
	clear(votes)
	*s = slot{votes: votes}
	r.slotFree = append(r.slotFree, s)
}

func (r *replica) onPrePrepare(pp prePrepareMsg) {
	if pp.View != r.view {
		return
	}
	s := r.slot(pp.Seq)
	if s == nil || s.hasReq {
		return
	}
	s.req, s.hasReq = pp.Req, true
	s.digest = pp.Req.ID
	rec := r.rec(pp.Req.ID)
	rec.preprepared(pp.Seq)
	rec.armed = false // a retransmission may arm afresh; queued timers still fire

	// The pre-prepare doubles as the primary's prepare vote (PBFT).
	s.setPrepare(int(pp.View)%len(r.g.replicas), pp.Req.ID)

	digest := pp.Req.ID
	if r.fault == Lying {
		digest = guid.FromData([]byte("lie")) // corrupt vote
	}
	s.setPrepare(r.id, digest)
	r.broadcast(kindPrepare, voteMsg{Tag: r.g.tag, View: r.view, Seq: pp.Seq, Digest: digest, Replica: r.id}, CSmall)
	r.maybePrepared(s, pp.Seq)
}

func (r *replica) onPrepare(v voteMsg) {
	if v.View != r.view {
		return
	}
	s := r.slot(v.Seq)
	if s == nil {
		return
	}
	s.setPrepare(v.Replica, v.Digest)
	r.maybePrepared(s, v.Seq)
}

// maybePrepared fires when 2f+1 replicas (including this one) prepared.
func (r *replica) maybePrepared(s *slot, seq uint64) {
	if s.prepared || !s.hasReq || s.quorum(false) < 2*r.g.f+1 {
		return
	}
	s.prepared = true
	digest := s.digest
	if r.fault == Lying {
		digest = guid.FromData([]byte("lie"))
	}
	s.setCommit(r.id, digest)
	r.broadcast(kindCommit, voteMsg{Tag: r.g.tag, View: r.view, Seq: seq, Digest: digest, Replica: r.id}, CSmall)
	r.maybeCommitted(s)
}

func (r *replica) onCommit(v voteMsg) {
	if v.View != r.view {
		return
	}
	s := r.slot(v.Seq)
	if s == nil {
		return
	}
	s.setCommit(v.Replica, v.Digest)
	r.maybeCommitted(s)
}

// maybeCommitted fires when 2f+1 commits arrived; executes in order.
func (r *replica) maybeCommitted(s *slot) {
	if s.committed || !s.prepared || !s.hasReq || s.quorum(true) < 2*r.g.f+1 {
		return
	}
	s.committed = true
	r.executeReady()
}

// checkpointWindow is how far the floor trails the execution cursor:
// a message naming a sequence number below it is stale (PBFT's
// checkpoint, simplified — votes for long-executed slots are useless),
// and its slot is discarded at the next truncation.
const checkpointWindow = 64

// doneWindow bounds the executed-request dedup horizon (a replica's
// done index and the assigned fact of a record the index outlives): the
// last doneWindow executions, each held once in a doneIndex.
// Retransmissions arrive at most one client retry period after
// execution; 512 executions is orders of magnitude more than any group
// commits in that span.
const doneWindow = 512

// executeReady executes committed slots in sequence order.  An executed
// slot goes straight back to the pool and its request's record retires;
// what outlives them is the cursor and the done index.
func (r *replica) executeReady() {
	defer r.truncateLog()
	for {
		seq := r.execCursor
		s := r.lookup(seq)
		if s == nil || !s.committed {
			return
		}
		req := s.req
		r.execCursor++
		if len(r.window) > 0 {
			r.window = slices.Delete(r.window, 0, 1)
		}
		delete(r.far, seq)
		r.putSlot(s)
		if rec := r.reqs[req.ID]; rec != nil {
			// From here on a view-change timer for this request could only
			// find it done and return: take them out of the kernel instead.
			for _, t := range rec.timers {
				t.Stop()
			}
			rec.timers, rec.armed, rec.assigned = rec.timers[:0], false, false
			r.release(req.ID, rec)
		}
		if r.done.has(req.ID) {
			// A view change recycled a request this replica had already
			// executed under an earlier sequence number (the new primary
			// had not committed it).  Agreeing on the slot is fine;
			// executing it twice is not.
			continue
		}
		if old, evicted := r.done.add(req.ID, seq); evicted {
			if orec := r.reqs[old]; orec != nil {
				orec.assigned = false
				r.release(old, orec)
			}
		}
		r.g.om.executes.Inc()
		if r.exec != nil && r.fault == Honest {
			r.exec(seq, req)
		}
		// Reply to the client (Fig 5c path back).
		r.reply(seq, req.ID, req.Client)
	}
}

// reply sends (or re-sends) the signed execution reply for an executed
// request.  Honest replicas' slot digest is always the request ID, so a
// re-reply needs only the (seq, id) pair the done index retains.  The
// reply is charged a signature's bytes; the signature over (tag, seq,
// digest) is made only if a client's commit certificate is inspected.
func (r *replica) reply(seq uint64, id guid.GUID, client simnet.NodeID) {
	digest := id
	if r.fault == Lying {
		digest = guid.FromData([]byte("lie"))
	}
	r.g.net.Send(r.node(), client, kindReply,
		replyMsg{Tag: r.g.tag, Seq: seq, ID: id, Digest: digest, From: r.id}, CReply+crypt.SignatureSize)
}

// refreshVotes re-broadcasts this replica's own prepare/commit votes
// for an unexecuted slot.  Votes are sent exactly once in the normal
// flow; under message loss a slot can hold 2f matching votes forever.
// Retransmission is driven by client retries, so it stops by itself.
func (r *replica) refreshVotes(seq uint64) {
	s := r.lookup(seq)
	if s == nil || !s.hasReq {
		return
	}
	r.g.om.voteRefreshes.Inc()
	v := s.votes[r.id]
	if v.prepVoted {
		r.broadcast(kindPrepare, voteMsg{Tag: r.g.tag, View: r.view, Seq: seq, Digest: v.prepare, Replica: r.id}, CSmall)
	}
	if v.commVoted {
		r.broadcast(kindCommit, voteMsg{Tag: r.g.tag, View: r.view, Seq: seq, Digest: v.commit, Replica: r.id}, CSmall)
	}
}

// refreshViewVotes re-broadcasts this replica's outstanding view-change
// votes (views above the installed one) in ascending view order, plus
// an installed announcement for the current view, so replicas stranded
// in older views keep hearing about it.
func (r *replica) refreshViewVotes() {
	var views []uint64
	for nv, votes := range r.viewVotes {
		if nv > r.view && votes[r.id] {
			views = append(views, nv)
		}
	}
	sort.Slice(views, func(i, j int) bool { return views[i] < views[j] })
	for _, nv := range views {
		r.broadcast(kindViewChange, viewChangeMsg{Tag: r.g.tag, NewView: nv, Replica: r.id}, CSmall)
	}
	if r.view > 0 {
		r.broadcast(kindViewChange, viewChangeMsg{Tag: r.g.tag, NewView: r.view, Replica: r.id, Installed: true}, CSmall)
	}
}

// truncateLog moves the floor up behind the execution cursor and
// discards whatever stale messages parked in far below it.
func (r *replica) truncateLog() {
	if r.execCursor < checkpointWindow {
		return
	}
	r.floor = r.execCursor - checkpointWindow
	for seq, s := range r.far {
		if seq < r.floor {
			delete(r.far, seq)
			r.putSlot(s)
		}
	}
}

// requestTimeout fires when a request this backup knows about has not
// executed in time — the primary never pre-prepared it, or its slot
// stalled on dropped votes: vote to change views.  The timer is NOT
// self-re-arming; the client's periodic retransmission re-arms it (via
// onRequest), so escalation stops by itself once the client gives up
// or the request executes.
func (r *replica) requestTimeout(id guid.GUID) {
	rec := r.reqs[id]
	if rec == nil {
		return // not in flight: executed, or released since
	}
	rec.armed = false
	// Every timer runs for requestTimeout, so the one firing is the
	// oldest still queued.  (The list only serves the Stop at execution:
	// a handle dropped from it by mistake leaves a timer that runs to
	// its deadline, finds the request done, and returns.)
	if len(rec.timers) > 0 {
		rec.timers = slices.Delete(rec.timers, 0, 1)
	}
	if r.done.has(id) {
		return
	}
	if !rec.pending {
		if !rec.assigned {
			r.release(id, rec)
			return // a view change recycled the request; a retransmit restarts it
		}
		if r.lookup(rec.seq) == nil {
			return
		}
	}
	r.g.om.viewVoteTimeouts.Inc()
	nv := r.view + 1
	r.voteView(nv)
	r.broadcast(kindViewChange, viewChangeMsg{Tag: r.g.tag, NewView: nv, Replica: r.id}, CSmall)
}

func (r *replica) onViewChange(vc viewChangeMsg) {
	if vc.NewView <= r.view {
		return
	}
	if vc.Installed {
		// A peer claims this view is already installed.  One claim could
		// be a lie; f+1 distinct claimants include an honest replica, so
		// jump straight to the view (PBFT's new-view, minus the proofs).
		// Without this, replicas that installed a view stop advertising
		// its votes and laggards can never assemble 2f+1 — the tier
		// splits across views forever.
		if r.installedClaims[vc.NewView] == nil {
			r.installedClaims[vc.NewView] = make(map[int]bool)
		}
		r.installedClaims[vc.NewView][vc.Replica] = true
		if len(r.installedClaims[vc.NewView]) >= r.g.f+1 {
			r.installView(vc.NewView)
		}
		return
	}
	if r.viewVotes[vc.NewView] == nil {
		r.viewVotes[vc.NewView] = make(map[int]bool)
	}
	r.viewVotes[vc.NewView][vc.Replica] = true
	// PBFT's catch-up rule: when f+1 distinct replicas are voting for
	// views beyond ours, join the smallest such view even without a
	// local timeout.  Without this, replicas whose timeouts fired at
	// different moments scatter their votes across different view
	// numbers (one stuck at view 0 votes for 1 while the rest vote for
	// 2) and no view ever collects 2f+1 votes — a livelock that message
	// loss makes routine.
	ahead := make(map[int]bool)
	smallest := uint64(0)
	for nv, votes := range r.viewVotes {
		if nv <= r.view {
			continue
		}
		for rep := range votes {
			if rep != r.id {
				ahead[rep] = true
			}
		}
		if smallest == 0 || nv < smallest {
			smallest = nv
		}
	}
	if len(ahead) >= r.g.f+1 && !r.viewVotes[smallest][r.id] {
		r.voteView(smallest)
		if r.view < smallest {
			r.broadcast(kindViewChange, viewChangeMsg{Tag: r.g.tag, NewView: smallest, Replica: r.id}, CSmall)
		}
	}
	r.maybeNewView(vc.NewView)
}

func (r *replica) voteView(nv uint64) {
	if r.viewVotes[nv] == nil {
		r.viewVotes[nv] = make(map[int]bool)
	}
	r.viewVotes[nv][r.id] = true
	r.maybeNewView(nv)
}

// maybeNewView installs a new view on 2f+1 votes.  The new primary
// re-proposes every pending request it holds a payload for.
func (r *replica) maybeNewView(nv uint64) {
	if nv <= r.view || len(r.viewVotes[nv]) < 2*r.g.f+1 {
		return
	}
	r.installView(nv)
}

// installView switches to view nv: recycles un-committed slots back to
// pending, purges dead votes, announces the installation, and (as the
// new primary) re-proposes what it can.
func (r *replica) installView(nv uint64) {
	if nv <= r.view {
		return
	}
	r.view = nv
	r.g.om.viewInstalls.Inc()
	if tr := r.g.otr; tr != nil {
		tr.Emit(obs.Event{
			T: int64(r.g.net.K.Now()), Node: int(r.node()), Peer: -1,
			Layer: "byz", Event: "view-install", ID: nv,
		})
	}
	// Abandon un-pre-prepared slots from the old view; keep committed
	// state (sequence numbers already executed are final).
	r.nextSeq = r.execCursor
	for i, s := range r.window {
		if s != nil && !s.committed {
			r.window[i] = nil
			r.recycle(s)
		}
	}
	for seq, s := range r.far {
		if !s.committed {
			delete(r.far, seq)
			r.recycle(s)
		}
	}
	// Votes for views at or below the installed one are dead weight.
	for v := range r.viewVotes {
		if v <= r.view {
			delete(r.viewVotes, v)
		}
	}
	for v := range r.installedClaims {
		if v <= r.view {
			delete(r.installedClaims, v)
		}
	}
	r.broadcast(kindViewChange, viewChangeMsg{Tag: r.g.tag, NewView: r.view, Replica: r.id, Installed: true}, CSmall)
	if r.isPrimary() {
		// Defer a tick so every replica installs the view first.
		r.g.net.K.After(time.Millisecond, func() {
			// Deterministic proposal order (reqs is a map).
			var ids []guid.GUID
			for id, rec := range r.reqs {
				if rec.pending {
					ids = append(ids, id)
				}
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
			for _, id := range ids {
				rec := r.reqs[id]
				if rec.req.Payload == nil && rec.req.Size == 0 {
					continue // digest-only notification; client will retry
				}
				if !rec.assigned {
					r.propose(rec.req, rec)
				}
			}
		})
	}
}

// recycle returns an un-committed slot's request to pending — the next
// primary proposes it afresh — and the slot to the pool.
func (r *replica) recycle(s *slot) {
	if s.hasReq {
		rec := r.rec(s.req.ID)
		rec.assigned = false
		rec.pending, rec.req = true, s.req
	}
	r.putSlot(s)
}
