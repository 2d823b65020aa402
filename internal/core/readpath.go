package core

import (
	"errors"
	"fmt"
	"time"

	"oceanstore/internal/epidemic"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/replica"
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
	Reply     simnet.NodeID
	Rid       uint64
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

type readState struct {
	done bool
	cb   func(readRep, error)
}

// readService is the pool-wide server side of remote reads plus the
// client-side retry state.
type readService struct {
	p        *Pool
	nextRid  uint64
	inflight map[uint64]*readState
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
		ring, ok := rs.p.Ring(q.Object)
		if !ok {
			return
		}
		// Serve from the state this server actually holds: its secondary
		// replica if it is one, the shared primary state if it is a
		// primary-tier member; silence otherwise (the client will retry
		// elsewhere).
		var src *epidemic.Replica
		if sec, ok := ring.Secondary(id); ok && !sec.Stale {
			src = sec.Rep
			sec.Reads++
		} else if isPrimary(ring.PrimaryNodes(), id) {
			src = ring.PrimaryState()
		} else {
			return
		}
		rep := readRep{Rid: q.Rid, Version: src.CommittedState(), Committed: src.CommittedLen()}
		if !q.Committed {
			rep.Version = src.TentativeState(rs.p.K.Now())
			rep.Tentative = src.TentativeIDs(nil)
		}
		rs.p.Net.Send(id, q.Reply, KindReadRep, rep, rep.Version.BytesStored()+64)
	case readRep:
		st, ok := rs.inflight[q.Rid]
		if !ok || st.done {
			return
		}
		st.done = true
		delete(rs.inflight, q.Rid)
		st.cb(q, nil)
	}
}

func isPrimary(primaries []simnet.NodeID, id simnet.NodeID) bool {
	for _, p := range primaries {
		if p == id {
			return true
		}
	}
	return false
}

// readCandidates orders the servers a session's remote read should try:
// acceptable live secondaries by ascending latency (floating replicas
// are the latency story of §4.6), then the primary tier, which always
// satisfies every guarantee.
func (s *Session) readCandidates(obj guid.GUID) ([]simnet.NodeID, error) {
	ring, ok := s.c.pool.Ring(obj)
	if !ok {
		return nil, fmt.Errorf("core: unknown object %s", obj.Short())
	}
	var out []simnet.NodeID
	s.eligibleSecondaries(ring, obj, func(sec *replica.Secondary) {
		out = append(out, sec.Node)
	})
	net := s.c.pool.Net
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if net.Latency(s.c.Node, out[j]) < net.Latency(s.c.Node, out[i]) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	for _, nid := range ring.PrimaryNodes() {
		if !net.Node(nid).Down() {
			out = append(out, nid)
		}
	}
	return out, nil
}

// RemoteRead reads obj over the network: the request goes to the best
// replica server, falls over to alternates with capped exponential
// backoff when replies do not arrive, and gives up at the deadline.
// cb fires exactly once with the decrypted data or an error.
func (s *Session) RemoteRead(obj guid.GUID, deadline time.Duration, cb func([]byte, error)) {
	bc, ok := s.c.Keys.Cipher(obj)
	if !ok {
		cb(nil, errors.New("core: read permission denied (no key)"))
		return
	}
	rs := s.c.pool.reads()
	rid := rs.nextRid
	rs.nextRid++
	st := &readState{}
	rs.inflight[rid] = st
	st.cb = func(rep readRep, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		data, derr := object.ViewWith(rep.Version, bc).Read()
		if derr != nil {
			cb(nil, derr)
			return
		}
		if s.g&MonotonicReads != 0 {
			s.observe(obj, rep.Committed, rep.Tentative)
		}
		cb(data, nil)
	}

	net := s.c.pool.Net
	k := s.c.pool.K
	committed := s.g&ReadCommitted != 0
	const firstTimeout = 250 * time.Millisecond
	const timeoutCap = 4 * time.Second
	attempt := 0
	var try func()
	try = func() {
		if st.done {
			return
		}
		// Recompute candidates each attempt: churn changes who is up and
		// which secondaries are acceptable.
		cands, err := s.readCandidates(obj)
		if err != nil {
			st.done = true
			delete(rs.inflight, rid)
			cb(nil, err)
			return
		}
		if len(cands) > 0 {
			if attempt > 0 {
				net.NoteRetry(KindReadReq)
			}
			target := cands[attempt%len(cands)]
			net.Send(s.c.Node, target, KindReadReq,
				readReq{Object: obj, Committed: committed, Reply: s.c.Node, Rid: rid}, 64)
		}
		timeout := firstTimeout << uint(attempt)
		if timeout > timeoutCap || timeout <= 0 {
			timeout = timeoutCap
		}
		attempt++
		k.After(timeout, try)
	}
	try()
	k.After(deadline, func() {
		if st.done {
			return
		}
		st.done = true
		delete(rs.inflight, rid)
		cb(nil, ErrReadTimeout)
	})
}
