package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/epidemic"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/replica"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

// This file is the networked read path.  Session.Read serves from local
// replica state instantly — fine for consistency experiments, wrong for
// fault ones: a read should ride the same lossy network as everything
// else.  RemoteRead sends a request message to a replica server and
// waits for the version to come back, retrying alternate replicas with
// capped exponential backoff under a virtual-time deadline, so a read
// under churn either completes (usually via a retry, visible in
// simnet.Stats) or fails by its deadline — it can never hang the clock.
//
// With a positive service time every server is a FIFO queue: a read
// occupies its server for that long, so read latency is a queueing
// quantity that degrades when few replicas absorb a flash crowd — the
// signal the introspective controller reacts to by promoting (§4.7.2).

// Wire kinds (simnet accounting tags).
const (
	KindReadReq = "core-read-req"
	KindReadRep = "core-read-rep"
)

// ErrReadTimeout is returned when a remote read misses its deadline.
var ErrReadTimeout = errors.New("core: read deadline exceeded")

type readReq struct {
	Object    guid.GUID
	Committed bool
	// Floor asks for the IDs of the tentative updates read, which only a
	// MonotonicReads session keeps.
	Floor bool
	Reply simnet.NodeID
	Rid   uint64
	// Tier asks a primary-tier member for the tier's state even when it
	// also hosts a floating replica of the object.
	Tier bool
}

type readRep struct {
	Rid     uint64
	Version *object.Version
	// Committed and Tentative are what the serving replica's read saw —
	// its committed length and the IDs of the tentative updates applied —
	// for the session's MonotonicReads floor.
	Committed int
	Tentative []update.UpdateID
}

// readState is one read in flight.
type readState struct {
	s       *Session
	ring    *replica.Ring
	bc      *crypt.BlockCipher
	cb      func([]byte, error)
	req     readReq
	attempt int
	// expires is the read's deadline; timer is its one pending event,
	// the next retry or the deadline, whichever comes first.
	expires time.Duration
	timer   sim.Timer
}

// readService is the pool-wide server side of remote reads, the
// servers' queues, and the client-side retry state.
type readService struct {
	p *Pool
	// service is how long a server takes over one read; 0 serves each
	// request on arrival, with no queue.
	service time.Duration
	// busy is each node's service-queue tail, the end of its last booked
	// slot, grown on demand as the world grows.
	busy     []time.Duration
	nextRid  uint64
	inflight map[uint64]*readState
	// data is the version bytes of queued reads' replies, which simnet
	// leaves out: it charges such a reply its header (ROADMAP 2(e)).
	data int64
}

// reads starts the service on first use: one network-wide handler
// serves every node's requests and replies.
func (p *Pool) reads() *readService {
	if p.readSvc == nil {
		p.readSvc = &readService{p: p, inflight: make(map[uint64]*readState)}
		p.Net.HandleAll(p.readSvc.handle)
	}
	return p.readSvc
}

func (rs *readService) handle(id simnet.NodeID, m simnet.Message) {
	switch q := m.Payload.(type) {
	case readReq:
		rs.serve(id, q)
	case readRep:
		rs.finish(q.Rid, q, nil)
	}
}

// serve answers q from the state server id holds: its floating replica
// if it has a fresh one and q does not ask for the tier's, else the
// primary tier's if it is a member; silence otherwise (the client will
// retry elsewhere).  A queued request reaches serve at the end of its
// booked slot, so the reply leaves then.
func (rs *readService) serve(id simnet.NodeID, q readReq) {
	ring, ok := rs.p.Ring(q.Object)
	if !ok {
		return
	}
	var src *epidemic.Replica
	if sec, ok := ring.Secondary(id); ok && !sec.Stale && !q.Tier {
		src = sec.Rep
	} else if ring.IsPrimary(id) {
		src = ring.PrimaryState()
	} else {
		return
	}
	rep := readRep{Rid: q.Rid, Committed: src.CommittedLen()}
	if q.Committed {
		rep.Version = src.CommittedState()
	} else {
		rep.Version = src.TentativeState(rs.p.K.Now())
		if q.Floor {
			rep.Tentative = src.TentativeIDs(nil)
		}
	}
	size := rep.Version.BytesStored() + 64
	if rs.service > 0 { // a soak read: its version is counted apart
		rs.data, size = rs.data+int64(size-64), 64
	}
	rs.p.Net.Send(id, q.Reply, KindReadRep, rep, size)
}

// finish resolves read rid once: it stops the read's timer, forgets
// it, and hands its callback the decrypted data or the error.
func (rs *readService) finish(rid uint64, rep readRep, err error) {
	st, ok := rs.inflight[rid]
	if !ok {
		return
	}
	delete(rs.inflight, rid)
	st.timer.Stop()
	var data []byte
	if err == nil {
		data, err = object.ViewWith(rep.Version, st.bc).Read()
	}
	if err != nil {
		st.cb(nil, err)
		return
	}
	if st.req.Floor {
		st.s.observe(st.req.Object, rep.Committed, rep.Tentative)
	}
	st.cb(data, nil)
}

// slotEnd is when a read that reaches node lat from now would finish
// service there, after node's queue.
func (rs *readService) slotEnd(node simnet.NodeID, lat time.Duration) time.Duration {
	start := rs.p.K.Now() + lat
	if int(node) < len(rs.busy) {
		start = max(start, rs.busy[node])
	}
	return start + rs.service
}

// book occupies node's next slot for a read that reaches it lat from
// now and returns the slot's end.
func (rs *readService) book(node simnet.NodeID, lat time.Duration) time.Duration {
	end := rs.slotEnd(node, lat)
	for int(node) >= len(rs.busy) {
		rs.busy = append(rs.busy, 0)
	}
	rs.busy[node] = end
	return end
}

// firstServer picks a queued read's first server in one pass: among the
// secondaries the session may read and the live primary anchor, the one
// whose reply would arrive first — request latency, queue wait,
// service, reply latency — ties to the lower node.  tier reports the
// anchor picked as a tier member; ok is false when there is no one to
// ask.
func (rs *readService) firstServer(s *Session, ring *replica.Ring, obj guid.GUID) (node simnet.NodeID, tier, ok bool) {
	client, net := s.c.Node, rs.p.Net
	best := time.Duration(-1)
	consider := func(n simnet.NodeID, t bool) {
		lat := net.Latency(client, n)
		done := rs.slotEnd(n, lat) + lat
		if best < 0 || done < best || (done == best && n < node) {
			node, tier, best = n, t, done
		}
	}
	s.eligibleSecondaries(ring, obj, func(sec *replica.Secondary) { consider(sec.Node, false) })
	if a := ring.PrimaryAnchor(); !net.Node(a).Down() {
		consider(a, true)
	}
	return node, tier, best >= 0
}

// readCandidates orders the servers a session's remote read should try:
// the first secs are the acceptable live secondaries by ascending
// latency (floating replicas are the latency story of §4.6), then the
// live primary tier, which always satisfies every guarantee.
func (s *Session) readCandidates(ring *replica.Ring, obj guid.GUID) (cands []simnet.NodeID, secs int) {
	s.eligibleSecondaries(ring, obj, func(sec *replica.Secondary) {
		cands = append(cands, sec.Node)
	})
	net := s.c.pool.Net
	slices.SortStableFunc(cands, func(a, b simnet.NodeID) int {
		return cmp.Compare(net.Latency(s.c.Node, a), net.Latency(s.c.Node, b))
	})
	secs = len(cands)
	for _, nid := range ring.PrimaryNodes() {
		if !net.Node(nid).Down() {
			cands = append(cands, nid)
		}
	}
	return cands, secs
}

// RemoteRead reads obj over the network: the request goes to the best
// replica server, falls over to alternates with capped exponential
// backoff when replies do not arrive, and gives up at the deadline.
// With a service time, the first server is the one whose reply would
// arrive first (firstServer), each request books its server's queue,
// and an attempt's retry waits for its booked reply first.  Each
// request to a floating replica counts one of its Reads, the heat the
// introspective controller demotes by.  cb fires exactly once with the
// decrypted data or an error.
func (s *Session) RemoteRead(obj guid.GUID, deadline time.Duration, cb func([]byte, error)) {
	bc, ok := s.c.Keys.Cipher(obj)
	if !ok {
		cb(nil, errors.New("core: read permission denied (no key)"))
		return
	}
	ring, ok := s.c.pool.Ring(obj)
	if !ok {
		cb(nil, fmt.Errorf("core: unknown object %s", obj.Short()))
		return
	}
	rs := s.c.pool.reads()
	st := &readState{s: s, ring: ring, bc: bc, cb: cb, expires: s.c.pool.K.Now() + deadline, req: readReq{
		Object: obj, Committed: s.g&ReadCommitted != 0, Floor: s.g&MonotonicReads != 0,
		Reply: s.c.Node, Rid: rs.nextRid,
	}}
	rs.nextRid++
	rs.inflight[st.req.Rid] = st
	rs.attempt(st)
}

// attempt sends st's next request and arms its timer: the retry, once
// the booked reply is overdue by the backoff, or the deadline, if that
// comes first.
func (rs *readService) attempt(st *readState) {
	net, k, client := rs.p.Net, rs.p.K, st.req.Reply
	var node simnet.NodeID
	var tier, ok bool
	if st.attempt == 0 && rs.service > 0 {
		node, tier, ok = rs.firstServer(st.s, st.ring, st.req.Object)
	}
	// Otherwise recompute the candidates each attempt: churn changes who
	// is up and which secondaries are acceptable.
	if !ok {
		if cands, secs := st.s.readCandidates(st.ring, st.req.Object); len(cands) > 0 {
			i := st.attempt % len(cands)
			node, tier, ok = cands[i], i >= secs, true
		}
	}
	var wait time.Duration
	if ok {
		if st.attempt > 0 {
			net.NoteRetry(KindReadReq)
		}
		if sec, isSec := st.ring.Secondary(node); isSec && !tier {
			sec.Reads++
		}
		st.req.Tier = tier
		// A queued request is held at its server until its booked slot
		// ends; without a service time it is served on arrival.
		var until time.Duration
		if rs.service > 0 {
			lat := net.Latency(client, node)
			until = rs.book(node, lat)
			wait = until + lat - k.Now()
		}
		net.SendHeld(client, node, KindReadReq, st.req, 64, until)
	}
	// The backoff doubles from 250 ms up to 4 s.
	timeout := min(250*time.Millisecond<<min(st.attempt, 4), 4*time.Second)
	st.attempt++
	st.timer = k.After(min(wait+timeout, st.expires-k.Now()), func() {
		if k.Now() >= st.expires {
			rs.finish(st.req.Rid, readRep{}, ErrReadTimeout)
			return
		}
		rs.attempt(st)
	})
}
