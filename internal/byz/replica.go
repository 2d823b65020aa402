package byz

import (
	"slices"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// slot tracks agreement state for one (view, seq).  Votes are recorded
// with the digest they carried; only votes matching the pre-prepared
// request's digest count toward quorums, which both tolerates
// out-of-order arrival and defeats lying replicas.
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
	// old is the certificate it held from an earlier view, reported
	// until the slot prepares in this one.
	old *preparedCert
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

// commits is the members whose commits match the slot's digest, one bit
// each.
func (s *slot) commits() uint64 {
	var b uint64
	for i, v := range s.votes {
		if v.commVoted && v.commit == s.digest {
			b |= 1 << i
		}
	}
	return b
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
// independent — a view change can drop a pre-prepared request's slot, a
// retransmission can re-arm a pre-prepared one — and the record lives
// while any of them holds.  That a request executed, and
// at which sequence number, is the replica's done index, not a record.
type reqRec struct {
	// pending: seen (in full or as a digest-only notification) but not
	// pre-prepared in the current view; req is the best copy so far.
	// View-change timeouts read it.
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

	view uint64
	// voted is the highest view this replica voted for, at votedAt, and
	// last re-sent at resentAt; above view, it is changing views and
	// takes no part in its own.
	voted             uint64
	votedAt, resentAt time.Duration
	nextSeq           uint64 // primary only: next sequence number to assign
	// execCursor is the next sequence number to execute, enforcing
	// in-order execution.
	execCursor uint64
	// The log: window[i] is the slot of base+i, nil until a message
	// names it or once it is freed, and base <= execCursor.  A slot that
	// executed stays until every member's matching commit arrives, so a
	// member that missed its pre-prepare gets its payload with a new
	// view, or until the floor, which trails the execution cursor by
	// checkpointWindow, passes it.  A sequence number outside PBFT's
	// watermarks [floor, floor+windowSpan) — a stale vote from below the
	// checkpoint, or whatever a lying primary cares to forge — gets no
	// slot, so no message can size the log.
	floor, base uint64
	window      []*slot
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
	// viewVotes collects view-change votes per proposed view, by sender.
	viewVotes map[uint64]map[int]*viewChangeMsg
	// newView proved view (nil in view 0); laggards get it re-sent.
	newView *newViewMsg
	// ahead holds agreement messages from views not yet installed.
	ahead []simnet.Message
	// low is the highest start of an order installed: what ran below it
	// is never ordered again, so votes report nothing beneath it.
	low uint64
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
		viewVotes: make(map[uint64]map[int]*viewChangeMsg),
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

// changing reports whether the replica voted for a view above its own.
func (r *replica) changing() bool { return r.voted > r.view }

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
		if p.Tag == r.g.tag && !r.early(p.View, m) {
			r.onPrePrepare(p)
		}
	case voteMsg:
		if p.Tag != r.g.tag || r.early(p.View, m) {
			return
		}
		if m.Kind == kindPrepare {
			r.onPrepare(p)
		} else {
			r.onCommit(p)
		}
	case *viewChangeMsg:
		if p.Tag == r.g.tag {
			r.onViewChange(p)
		}
	case *newViewMsg:
		if p.Tag == r.g.tag && m.From == r.g.nodes[p.View%uint64(len(r.g.nodes))] {
			r.onNewView(p)
		}
	}
}

// early keeps a message from a view this replica has not installed, to
// handle once it has, and re-sends the replica's vote, which shows it
// is behind; it reports whether m was early.
func (r *replica) early(view uint64, m simnet.Message) bool {
	if view <= r.view {
		return false
	}
	if len(r.ahead) < windowSpan {
		r.ahead = append(r.ahead, m)
	}
	r.refreshViewVotes()
	return true
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
		if s := r.lookup(rec.seq); s != nil && s.digest == req.ID && !s.req.full() && req.full() {
			// A new view named the request without its payload: here it is.
			s.req = req
			if r.executeReady(); r.done.has(req.ID) {
				return
			}
		}
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
	if r.isPrimary() && !r.changing() {
		if !req.full() {
			// Digest-only notification reached the primary (e.g. after a
			// view change); it cannot propose without the payload, but it
			// remembers interest.
			if !rec.pending {
				rec.pending, rec.req = true, req
			}
			return
		}
		r.propose(req)
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
func (r *replica) propose(req Request) {
	seq := r.nextSeq
	r.nextSeq++
	pp := prePrepareMsg{Tag: r.g.tag, View: r.view, Seq: seq, Req: req}
	r.broadcast(kindPrePrepare, pp, req.Size+CHeader)
	if s := r.slot(seq); s != nil {
		r.prePrepared(s, seq, req)
	}
}

// prePrepared takes req (the zero Request: a null request) as seq's in
// this view: the pre-prepare doubles as the primary's prepare vote
// (PBFT), and a backup casts and sends its own.
func (r *replica) prePrepared(s *slot, seq uint64, req Request) {
	s.req, s.hasReq, s.digest = req, true, req.ID
	if req.ID != guid.Zero {
		rec := r.rec(req.ID)
		rec.preprepared(seq)
		rec.armed = false // a retransmission may arm afresh; queued timers still fire
	}
	primary := int(r.view) % len(r.g.replicas)
	s.setPrepare(primary, req.ID)
	if r.id != primary {
		digest := r.vouch(req.ID)
		s.setPrepare(r.id, digest)
		r.broadcast(kindPrepare, voteMsg{Tag: r.g.tag, View: r.view, Seq: seq, Digest: digest, Replica: r.id}, CSmall)
	}
	r.maybePrepared(s, seq)
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

// lookup finds seq's slot in the log, or nil.
func (r *replica) lookup(seq uint64) *slot {
	if i := seq - r.base; i < uint64(len(r.window)) { // seq < base wraps past len
		return r.window[i]
	}
	return nil
}

// slot finds or starts the slot for seq.  Once seq executed it only
// finds: the slot it kept, or nil.  Outside the watermarks it is nil,
// and the message naming seq is counted as dropped.
func (r *replica) slot(seq uint64) *slot {
	if seq-r.floor >= windowSpan { // seq < floor wraps past the span
		r.g.om.outOfWindow.Inc()
		return nil
	}
	if s := r.lookup(seq); s != nil || seq < r.execCursor {
		return s
	}
	var s *slot
	if k := len(r.slotFree); k > 0 {
		s = r.slotFree[k-1]
		r.slotFree = r.slotFree[:k-1]
	} else {
		s = newSlot(len(r.g.replicas))
	}
	i := seq - r.base
	for uint64(len(r.window)) <= i {
		r.window = append(r.window, nil)
	}
	r.window[i] = s
	return s
}

// free retires the slot of seq, which executed.
func (r *replica) free(seq uint64) {
	i := seq - r.base
	r.putSlot(r.window[i])
	r.window[i] = nil
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
	if pp.View != r.view || r.changing() {
		return
	}
	s := r.slot(pp.Seq)
	if s == nil || s.hasReq {
		return
	}
	r.prePrepared(s, pp.Seq, pp.Req)
}

func (r *replica) onPrepare(v voteMsg) {
	if v.View != r.view || r.changing() {
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
	digest := r.vouch(s.digest)
	s.setCommit(r.id, digest)
	r.broadcast(kindCommit, voteMsg{Tag: r.g.tag, View: r.view, Seq: seq, Digest: digest, Replica: r.id}, CSmall)
	r.maybeCommitted(s)
}

func (r *replica) onCommit(v voteMsg) {
	if v.View != r.view || r.changing() {
		return
	}
	s := r.slot(v.Seq)
	switch {
	case s == nil:
	case v.Seq >= r.execCursor:
		s.setCommit(v.Replica, v.Digest)
		r.maybeCommitted(s)
	case v.Digest == s.digest:
		// It ran here: once every member committed it, no member needs
		// its payload from this one.
		if s.setCommit(v.Replica, v.Digest); s.commits() == r.allCommits() {
			r.free(v.Seq)
		}
	}
}

// maybeCommitted fires when 2f+1 commits arrived; executes in order.
func (r *replica) maybeCommitted(s *slot) {
	if s.committed || !s.prepared || !s.hasReq || s.quorum(true) < 2*r.g.f+1 {
		return
	}
	s.committed = true
	r.executeReady()
}

// held is this replica's copy, with its payload, of request id at seq:
// from seq's slot, run or not, or the request's record.
func (r *replica) held(seq uint64, id guid.GUID) (Request, bool) {
	if s := r.lookup(seq); s != nil && s.digest == id && s.req.full() {
		return s.req, true
	}
	if rec := r.reqs[id]; rec != nil && rec.req.full() {
		return rec.req, true
	}
	return Request{}, false
}

// allCommits is the commit bits of every member.
func (r *replica) allCommits() uint64 { return 1<<len(r.g.replicas) - 1 }

// checkpointWindow is how far the floor trails the execution cursor:
// a message naming a sequence number below it is stale (PBFT's
// checkpoint, simplified — votes for long-executed slots are useless),
// and a slot below it is discarded at the next truncation.
const checkpointWindow = 64

// doneWindow bounds the executed-request dedup horizon (a replica's
// done index and the assigned fact of a record the index outlives): the
// last doneWindow sequence numbers executed, null and duplicate ones
// included.  A client re-sends a request every 2×requestTimeout (6 s)
// until f+1 replies agree.  The hottest object of `osexp soak 1 -nodes
// 1000000 -ops 1000000` runs at most 1 099 executions in any 6 s, so
// there 512 cover about 2.8 s, and a request all of whose replies were
// lost can be ordered again; the primary's log answers it as a
// duplicate commit while its window (epidemic.Window) still holds the
// ID.  The benchmark's four workloads send no retransmission at all.
const doneWindow = 512

// executeReady executes committed slots in sequence order.  Its
// request's record retires; the slot goes back to the pool unless a
// member's commit for what ran there is missing, and then stays until
// it arrives (onCommit) or the floor passes it (truncateLog).
func (r *replica) executeReady() {
	defer r.truncateLog()
	for {
		seq := r.execCursor
		s := r.lookup(seq)
		if s == nil || !s.committed {
			return
		}
		req := s.req
		// A null request, or one this replica already ran at an earlier
		// sequence number (a new view can order a request twice), is a
		// no-op: agreeing on its slot is fine, executing it twice is not.
		noop := req.ID == guid.Zero || r.done.has(req.ID)
		if !noop && !req.full() {
			return // a new view named it without its payload; a retransmission brings it
		}
		r.execCursor++
		if noop || s.commits() == r.allCommits() {
			r.free(seq)
		}
		if rec := r.reqs[req.ID]; rec != nil {
			// From here on a view-change timer for this request could only
			// find it done and return: take them out of the kernel instead.
			for _, t := range rec.timers {
				t.Stop()
			}
			rec.timers, rec.armed, rec.assigned = rec.timers[:0], false, false
			r.release(req.ID, rec)
		}
		if r.diverges(seq, req.ID, !noop) {
			r.g.diverged++
			r.g.om.divergences.Inc()
		}
		if old, evicted := r.done.add(req.ID, seq, !noop); evicted {
			if orec := r.reqs[old]; orec != nil {
				orec.assigned = false
				r.release(old, orec)
			}
		}
		if noop {
			continue
		}
		r.g.om.executes.Inc()
		if r.exec != nil && r.fault == Honest {
			r.exec(seq, req)
		}
		// Reply to the client (Fig 5c path back).
		r.reply(seq, req.ID, req.Client)
	}
}

// diverges reports whether another member's done index contradicts
// running id at seq: it ran another request there, or (id not a no-op
// here) ran id elsewhere.  A tier's members share a process, so no
// record beside the done indexes is needed.
func (r *replica) diverges(seq uint64, id guid.GUID, ran bool) bool {
	for _, q := range r.g.replicas {
		if q == r {
			continue
		}
		if at, ok := q.done.at(seq); ok && at != id {
			return true
		}
		if !ran {
			continue
		}
		if s, ok := q.done.get(id); ok && s != seq {
			return true
		}
	}
	return false
}

// reply sends (or re-sends) the signed execution reply for an executed
// request.  Honest replicas' slot digest is always the request ID, so a
// re-reply needs only the (seq, id) pair the done index retains.  The
// reply is charged a signature's bytes; the signature over (tag, seq,
// digest) is made only if a client's commit certificate is inspected.
func (r *replica) reply(seq uint64, id guid.GUID, client simnet.NodeID) {
	r.g.net.Send(r.node(), client, kindReply,
		replyMsg{Tag: r.g.tag, Seq: seq, ID: id, Digest: r.vouch(id), From: r.id}, CReply+crypt.SignatureSize)
}

// vouch is the digest this replica's votes and replies carry for d: d
// itself, or a corrupt one from a lying replica.
func (r *replica) vouch(d guid.GUID) guid.GUID {
	if r.fault == Lying {
		return guid.FromData([]byte("lie"))
	}
	return d
}

// refreshVotes re-broadcasts this replica's own prepare/commit votes
// for an unexecuted slot.  Votes are sent exactly once in the normal
// flow; under message loss a slot can hold 2f matching votes forever.
// Retransmission is driven by client retries, so it stops by itself.
func (r *replica) refreshVotes(seq uint64) {
	s := r.lookup(seq)
	if s == nil || !s.hasReq || seq < r.execCursor {
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

// refreshViewVotes re-sends the vote for the view this replica is
// changing to, at most once a requestTimeout: a vote is sent once
// otherwise, and a lost one would wedge the view change.
func (r *replica) refreshViewVotes() {
	now := r.g.net.K.Now()
	if vc := r.viewVotes[r.voted][r.id]; r.changing() && vc != nil && now-r.resentAt >= requestTimeout {
		r.resentAt = now
		r.broadcast(kindViewChange, vc, vc.size(r.g.f))
	}
}

// truncateLog moves the floor up behind the execution cursor and trims
// the log's executed front: freed slots, and every slot below the floor.
func (r *replica) truncateLog() {
	if r.execCursor >= checkpointWindow {
		r.floor = r.execCursor - checkpointWindow
	}
	k := 0
	for ; k < len(r.window) && r.base+uint64(k) < r.execCursor; k++ {
		if s := r.window[k]; s != nil {
			if r.base+uint64(k) >= r.floor {
				break
			}
			r.putSlot(s)
		}
	}
	r.window = slices.Delete(r.window, 0, k)
	r.base += uint64(k)
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
			return // a new view dropped its slot; a retransmission restarts it
		}
		if r.lookup(rec.seq) == nil {
			return
		}
	} else {
		// The copy has served: a retransmission brings the request back,
		// to the primary too, which proposes what clients still wait for.
		rec.pending = false
		r.release(id, rec)
	}
	// Each view it votes for past the next one waits twice as long to
	// start (PBFT's doubling), so a member the rest do not follow votes
	// ever more rarely.
	if !r.changing() || r.g.net.K.Now()-r.votedAt >= requestTimeout<<min(r.voted-r.view-1, 16) {
		r.g.om.viewVoteTimeouts.Inc()
		r.voteView(max(r.view, r.voted) + 1)
	}
}

func (r *replica) onViewChange(vc *viewChangeMsg) {
	if vc.NewView <= r.view {
		// The sender has not installed this replica's view: its primary
		// re-sends the new-view message that proves it.
		if r.newView != nil && r.isPrimary() {
			r.g.net.Send(r.node(), r.g.nodes[vc.Replica], kindViewChange, r.newView, r.newView.size(r.g.f))
		}
		return
	}
	r.record(vc)
	// PBFT's catch-up rule: when f+1 distinct replicas are voting for
	// views beyond the one this replica is in or changing to, join the
	// smallest such view even without a local timeout.  Without this,
	// replicas whose timeouts fired at different moments scatter their
	// votes across different view numbers (one stuck at view 0 votes for
	// 1 while the rest vote for 2) and no view ever collects 2f+1 votes —
	// a livelock that message loss makes routine.
	cur := max(r.view, r.voted)
	ahead := make(map[int]bool)
	smallest := uint64(0)
	for nv, votes := range r.viewVotes {
		if nv <= cur {
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
	if len(ahead) >= r.g.f+1 {
		r.voteView(smallest)
	}
	r.maybeNewView(vc.NewView)
}

// record keeps a vote, the latest from its sender for its view.
func (r *replica) record(vc *viewChangeMsg) {
	if r.viewVotes[vc.NewView] == nil {
		r.viewVotes[vc.NewView] = make(map[int]*viewChangeMsg)
	}
	r.viewVotes[vc.NewView][vc.Replica] = vc
}

// voteView votes for view nv, with the latest prepared certificate of
// every slot it has not run and what ran at each sequence number of its
// checkpoint window (a slot is freed once every member committed it, so
// without those a committed sequence number could vanish from every
// vote), and stops taking part in its own view.
func (r *replica) voteView(nv uint64) {
	vc := &viewChangeMsg{Tag: r.g.tag, NewView: nv, Replica: r.id, Floor: max(r.floor, r.low), Cursor: r.execCursor}
	primary := nv % uint64(len(r.g.replicas))
	for seq := vc.Floor; seq < r.execCursor; seq++ {
		e := executedEntry{Seq: seq}
		e.Req.ID, _ = r.done.at(seq)
		if s := r.lookup(seq); s != nil && s.commits()&(1<<primary) == 0 {
			e.Req = s.req // the new primary did not commit it
		}
		vc.Executed = append(vc.Executed, e)
	}
	for i := r.execCursor - r.base; i < uint64(len(r.window)); i++ {
		if seq := r.base + i; seq >= vc.Floor {
			if c := r.latest(r.window[i], seq); c != nil {
				vc.Prepared = append(vc.Prepared, *c)
			}
		}
	}
	if nv > r.voted {
		r.voted, r.votedAt = nv, r.g.net.K.Now()
	}
	r.record(vc)
	r.broadcast(kindViewChange, vc, vc.size(r.g.f))
	r.maybeNewView(nv)
}

// latest is the latest prepared certificate this replica holds for
// seq, whose slot is s: the slot's own if it prepared in this view,
// else the one it kept from an earlier view.
func (r *replica) latest(s *slot, seq uint64) *preparedCert {
	switch {
	case s == nil:
		return nil
	case !s.prepared:
		return s.old
	}
	c := &preparedCert{PrePrepare: prePrepareMsg{Tag: r.g.tag, View: r.view, Seq: seq, Req: s.req}}
	primary := int(r.view) % len(r.g.replicas)
	for j, v := range s.votes {
		if j != primary && v.prepVoted && v.prepare == s.digest {
			c.Prepares = append(c.Prepares, j)
		}
	}
	return c
}

// maybeNewView starts view nv on 2f+1 votes, if this replica is its
// primary, sending every member the votes, which prove nv and fix its
// order; it votes for nv first if it has not.  It leaves out each vote
// whose floor is above the lowest start the rest can prove.
func (r *replica) maybeNewView(nv uint64) {
	votes := r.viewVotes[nv]
	n := len(r.g.replicas)
	if nv <= r.view || nv < r.voted || int(nv%uint64(n)) != r.id || len(votes) < 2*r.g.f+1 {
		return
	}
	if votes[r.id] == nil {
		r.voteView(nv) // which comes back here
		return
	}
	floors := make([]uint64, 0, len(votes))
	for _, vc := range votes {
		floors = append(floors, vc.Floor)
	}
	slices.Sort(floors)
	for _, floor := range floors {
		nm := &newViewMsg{Tag: r.g.tag, View: nv, Votes: make([]*viewChangeMsg, n)}
		for i, vc := range votes {
			if vc.Floor <= floor {
				nm.Votes[i] = vc
			}
		}
		if start, _, order, ok := newViewOrder(nm.Votes, nv, r.g.f); ok {
			for i, req := range order {
				if p, ok := r.held(start+uint64(i), req.ID); !req.full() && ok {
					nm.Payloads = append(nm.Payloads, p)
				}
			}
			r.broadcast(kindViewChange, nm, nm.size(r.g.f))
			r.installView(nm)
			return
		}
	}
}

// onNewView enters the view a new-view message from its primary proves:
// 2f+1 votes for it, each filed under its sender, that fix an order.  A
// replica that voted for a later view waits for that one.
func (r *replica) onNewView(nm *newViewMsg) {
	for i, vc := range nm.Votes {
		if vc != nil && (vc.Replica != i || vc.NewView != nm.View) {
			return
		}
	}
	if nm.View > r.view && nm.View >= r.voted && len(nm.Votes) == len(r.g.replicas) {
		r.installView(nm)
	}
}

// installView enters nm.View and agrees again, at the same sequence
// numbers, on the order its votes fix: it pre-prepares each entry it
// has not run, keeping its payload and latest certificate there, votes
// again for each it ran that a voter has not.  Clients re-send what
// they still wait for, and the new primary proposes it then.
func (r *replica) installView(nm *newViewMsg) {
	start, behind, order, ok := newViewOrder(nm.Votes, nm.View, r.g.f)
	if !ok {
		return
	}
	olds := make([]*preparedCert, len(order))
	for i, req := range order {
		seq := start + uint64(i)
		if seq >= r.execCursor {
			olds[i] = r.latest(r.lookup(seq), seq)
		}
		if p, ok := r.held(seq, req.ID); ok {
			order[i] = p
		} else if j := slices.IndexFunc(nm.Payloads, func(p Request) bool { return p.ID == req.ID }); j >= 0 && req.ID != guid.Zero {
			order[i] = nm.Payloads[j]
		}
	}
	r.dropSlots()
	r.view, r.newView, r.nextSeq = nm.View, nm, start+uint64(len(order))
	r.low = max(r.low, start)
	r.g.om.viewInstalls.Inc()
	if tr := r.g.otr; tr != nil {
		tr.Emit(obs.Event{
			T: int64(r.g.net.K.Now()), Node: int(r.node()), Peer: -1,
			Layer: "byz", Event: "view-install", ID: r.view,
		})
	}
	// Votes for views at or below the installed one are dead weight.
	for v := range r.viewVotes {
		if v <= r.view {
			delete(r.viewVotes, v)
		}
	}
	for i, req := range order {
		if seq := start + uint64(i); seq >= r.execCursor {
			if s := r.slot(seq); s != nil {
				s.old = olds[i]
				r.prePrepared(s, seq, req)
			}
		} else if at, _ := r.done.at(seq); seq >= behind && at == req.ID {
			v := voteMsg{Tag: r.g.tag, View: r.view, Seq: seq, Digest: r.vouch(req.ID), Replica: r.id}
			if !r.isPrimary() {
				r.broadcast(kindPrepare, v, CSmall)
			}
			r.broadcast(kindCommit, v, CSmall)
		}
	}
	ahead := r.ahead
	r.ahead = nil
	for _, m := range ahead {
		r.handle(m)
	}
}

// dropSlots retires every slot it has not run: agreement state does not
// outlive its view.  A request that loses its slot waits to be proposed
// again.  A slot that ran stays until its commits arrive, as in its view.
func (r *replica) dropSlots() {
	live := r.window[r.execCursor-r.base:]
	for _, s := range live {
		if s == nil {
			continue
		}
		if rec := r.reqs[s.req.ID]; s.hasReq && rec != nil {
			rec.assigned = false
			r.release(s.req.ID, rec)
		}
		r.putSlot(s)
	}
	clear(live)
	r.window = r.window[:r.execCursor-r.base]
}

// newViewOrder is the order a new view's votes fix (Castro–Liskov
// §4.4): from start, the highest floor among them, to the highest
// sequence number any reports, each number holds the request a vote
// reports executed there, else its highest-view certificate's request,
// else a null request (the zero Request), a no-op; an entry carries the
// request's payload if any report of it does.  Every vote reports
// all it ran at or above start, since its floor is at or below it.  A
// start is taken only if f+1 votes ran up to it, so one lying vote
// cannot move it; a certificate only if it is from a view below view
// and 2f distinct members other than that view's primary prepared it;
// an execution only inside its vote's [Floor, Cursor).  A report
// windowSpan or more above start is ignored, so no vote can size the
// order.  behind is the lowest execution cursor at or above start
// among the votes: a voter below start can run none of the order.
func newViewOrder(votes []*viewChangeMsg, view uint64, f int) (start, behind uint64, order []Request, ok bool) {
	n, ran := 0, 0
	for _, vc := range votes {
		if vc != nil {
			n, start = n+1, max(start, vc.Floor)
		}
	}
	behind = ^uint64(0)
	for _, vc := range votes {
		if vc != nil && vc.Cursor >= start {
			ran, behind = ran+1, min(behind, vc.Cursor)
		}
	}
	if n < 2*f+1 || ran < f+1 {
		return 0, 0, nil, false
	}
	var rank []uint64 // 1 + the view of the certificate taken; all ones once executed
	put := func(seq, rk uint64, req Request) {
		i := seq - start // a report below start wraps past windowSpan
		if i >= windowSpan {
			return
		}
		for uint64(len(order)) <= i {
			order, rank = append(order, Request{}), append(rank, 0)
		}
		switch {
		case rank[i] > 0 && order[i].ID == req.ID:
			if req.full() {
				order[i] = req // a copy with its payload
			}
			rank[i] = max(rank[i], rk)
		case rk > rank[i]:
			order[i], rank[i] = req, rk
		}
	}
	for _, vc := range votes {
		if vc == nil {
			continue
		}
		for _, c := range vc.Prepared {
			if c.PrePrepare.View < view && c.distinct(len(votes)) >= 2*f {
				put(c.PrePrepare.Seq, c.PrePrepare.View+1, c.PrePrepare.Req)
			}
		}
		for _, e := range vc.Executed {
			if e.Seq >= vc.Floor && e.Seq < vc.Cursor {
				put(e.Seq, ^uint64(0), e.Req)
			}
		}
	}
	return start, behind, order, true
}

// distinct counts the members of a tier of n, other than the
// certificate's view's primary, whose prepares it names, each once.
func (c *preparedCert) distinct(n int) int {
	k, primary := 0, int(c.PrePrepare.View%uint64(n))
	for i, j := range c.Prepares {
		if j >= 0 && j < n && j != primary && !slices.Contains(c.Prepares[:i], j) {
			k++
		}
	}
	return k
}
