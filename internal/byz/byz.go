// Package byz implements the Byzantine agreement protocol run by an
// object's primary tier of replicas (paper §4.4.3–§4.4.5).
//
// The primary tier is a small ring of replicas in well-connected parts
// of the network.  They serialise updates with a three-phase protocol
// in the style of Castro-Liskov PBFT [10]: the current primary
// pre-prepares a sequence number for each request; replicas exchange
// prepare and then commit messages; a replica executes a request once
// it holds a quorum of 2f+1 commits, and the client accepts a result
// once f+1 replicas reply.  No more than f of n = 3f+1 replicas may be
// faulty (§4.4.3 footnote 8).
//
// The package runs on the simulated network and accounts every byte,
// which is how the repository regenerates Figure 6: the per-update cost
// b = c1·n² + (u + c2)·n + c3, dominated by the n² of small (~100 byte)
// prepare/commit messages for small updates and by the n pre-prepare
// payload copies for large ones.
//
// A simplified view change provides liveness when the primary crashes:
// backups time out on client requests the primary never pre-prepared
// and vote the next view in.  (The full PBFT prepared-certificate
// transfer is out of scope; experiments exercise crash faults before
// and lying faults during agreement, not equivocating primaries across
// view changes.)
package byz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// Message size constants, matching the paper's "small protocol
// messages ... on the order of 100 bytes".
const (
	CSmall  = 100 // c1: prepare/commit/view-change size
	CHeader = 100 // c2: pre-prepare header atop the update payload
	CReply  = 100 // c3: reply size
)

// Fault is a replica's failure mode for experiments.
type Fault byte

// Fault modes.
const (
	Honest Fault = iota
	// Crashed replicas send and process nothing.
	Crashed
	// Lying replicas participate but vote wrong digests, attempting to
	// corrupt agreement.
	Lying
)

// Request is a client-submitted item for serialisation.
type Request struct {
	Tag     guid.GUID // group scope (set by Submit)
	ID      guid.GUID // request digest (content hash of the update)
	Payload any
	Size    int // wire size of the payload, the u of Figure 6
	// Timestamp is the client's optimistic timestamp; the primary uses
	// it to guide ordering (§4.4.3).
	Timestamp time.Duration
	Client    simnet.NodeID
}

// Result is what the client learns once f+1 replicas replied.
type Result struct {
	Seq       uint64
	ID        guid.GUID
	Latency   time.Duration
	Committed bool
	// Certificate proves the serialisation to parties that did not
	// participate in the protocol (§4.4.3: "to allow for later, offline
	// verification").  It carries f+1 replica signatures over
	// (tag, seq, digest).
	Certificate *CommitCertificate
}

// CommitCertificate is the offline-verifiable commit proof.
type CommitCertificate struct {
	Tag    guid.GUID
	Seq    uint64
	Digest guid.GUID
	// Sigs maps replica index to its signature.  Certificates built by
	// the protocol carry deferred signatures; call ResolveSigs (Verify
	// does) before reading Sigs directly.
	Sigs map[int][]byte
	// lazy holds the replicas' unevaluated signature promises.
	lazy map[int]*sigPromise
}

// sigPromise defers an ed25519 reply signature until somebody actually
// inspects a commit certificate.  Replies cryptographically bind the
// replica to its (tag, seq, digest) statement, but in the simulation
// the overwhelming majority of certificates are never re-verified —
// signing eagerly made ed25519 scalar multiplication the hottest
// function in a soak run.  The promise pins the exact statement at
// reply time (a lying replica's fake digest included), so deferred
// evaluation is observationally identical to eager signing.
type sigPromise struct {
	signer *crypt.Signer
	msg    []byte
	sig    []byte
}

func (p *sigPromise) resolve() []byte {
	if p.sig == nil {
		p.sig = p.signer.Sign(p.msg)
	}
	return p.sig
}

// ResolveSigs materializes any deferred replica signatures into Sigs.
// Manually populated entries (forged-certificate tests) are never
// overwritten.
func (c *CommitCertificate) ResolveSigs() {
	if c == nil || c.lazy == nil {
		return
	}
	if c.Sigs == nil {
		c.Sigs = make(map[int][]byte, len(c.lazy))
	}
	for idx, p := range c.lazy {
		if _, ok := c.Sigs[idx]; !ok {
			c.Sigs[idx] = p.resolve()
		}
	}
	c.lazy = nil
}

// certBytes is the signed statement.
func certBytes(tag guid.GUID, seq uint64, digest guid.GUID) []byte {
	buf := make([]byte, 0, guid.Size*2+8)
	buf = append(buf, tag[:]...)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, digest[:]...)
	return buf
}

// Verify checks the certificate against the tier's public keys: at
// least f+1 distinct replicas must have signed the same statement, so
// at least one honest replica vouches for it.
func (c *CommitCertificate) Verify(pubKeys [][]byte, f int) bool {
	if c == nil {
		return false
	}
	c.ResolveSigs()
	msg := certBytes(c.Tag, c.Seq, c.Digest)
	valid := 0
	for idx, sig := range c.Sigs {
		if idx < 0 || idx >= len(pubKeys) {
			return false
		}
		if crypt.VerifySig(pubKeys[idx], msg, sig) {
			valid++
		}
	}
	return valid >= f+1
}

// Executor is invoked on each replica, in sequence order, when a
// request reaches committed state.  The replica tier uses it to apply
// updates and spawn archival encoding (§4.4.4).
type Executor func(seq uint64, req Request)

// wire message kinds (also the simnet accounting tags).
const (
	kindRequest    = "byz-request"
	kindPrePrepare = "byz-preprepare"
	kindPrepare    = "byz-prepare"
	kindCommit     = "byz-commit"
	kindReply      = "byz-reply"
	kindViewChange = "byz-viewchange"
)

// replicaKinds are the wire kinds a tier replica receives; handler
// registration demuxes on (kind, tag) so replicas of other objects
// sharing a node are never invoked for this tier's traffic.
var replicaKinds = [...]string{kindRequest, kindPrePrepare, kindPrepare, kindCommit, kindViewChange}

// Demux keys (simnet O(1) dispatch): every protocol payload names its
// tier by tag.
func (r Request) Demux() simnet.DemuxKey       { return simnet.DemuxKey(r.Tag) }
func (m prePrepareMsg) Demux() simnet.DemuxKey { return simnet.DemuxKey(m.Tag) }
func (m voteMsg) Demux() simnet.DemuxKey       { return simnet.DemuxKey(m.Tag) }
func (m replyMsg) Demux() simnet.DemuxKey      { return simnet.DemuxKey(m.Tag) }
func (m viewChangeMsg) Demux() simnet.DemuxKey { return simnet.DemuxKey(m.Tag) }

type prePrepareMsg struct {
	Tag       guid.GUID
	View, Seq uint64
	Req       Request
}

type voteMsg struct { // prepare or commit
	Tag       guid.GUID
	View, Seq uint64
	Digest    guid.GUID
	Replica   int
}

type replyMsg struct {
	Tag    guid.GUID
	Seq    uint64
	ID     guid.GUID
	Digest guid.GUID
	From   int
	// Sig promises a signature over (tag, seq, digest) for the offline
	// commit certificate, evaluated on first inspection.
	Sig *sigPromise
}

type viewChangeMsg struct {
	Tag     guid.GUID
	NewView uint64
	Replica int
	// Installed announces that the sender has installed NewView (it saw
	// 2f+1 votes) — the new-view message of PBFT, minus the proofs.  A
	// replica adopts a view once f+1 distinct peers claim it installed,
	// which guarantees at least one honest witness.
	Installed bool
}

// Group is one object's primary tier.
type Group struct {
	net      *simnet.Network
	nodes    []simnet.NodeID
	f        int
	replicas []*replica
	clients  map[simnet.NodeID]*clientState
	// tag scopes this group's messages; replicas of other groups sharing
	// the same physical nodes ignore them.
	tag guid.GUID
	// signers hold each replica's certificate-signing key.
	signers []*crypt.Signer

	// RequestTimeout is how long a backup waits for the primary to
	// pre-prepare a request it saw before voting a view change.
	RequestTimeout time.Duration

	// retainExecuted keeps the full per-replica execution order (the
	// Executed diagnostic).  On by default; soak worlds switch it off so
	// the order — useful only to tests — doesn't grow with traffic.
	retainExecuted bool

	// reqFree recycles client-side per-request records (reqState).
	reqFree []*reqState

	om  byzMetrics
	otr *obs.Tracer
}

// byzMetrics holds the tier's pre-resolved obs handles; the zero value
// is "not instrumented" (nil handles count nothing).  All counters
// are tier-wide (NodeWide): groups of different objects sharing a
// registry aggregate, which is what pool-level dumps want.
type byzMetrics struct {
	submits, commits  *obs.Counter
	clientRetransmits *obs.Counter
	voteRefreshes     *obs.Counter // prepare/commit re-broadcasts
	viewVoteTimeouts  *obs.Counter // view-change votes cast on timeout
	viewInstalls      *obs.Counter
	reReplies         *obs.Counter // replies re-sent for executed requests
	executes          *obs.Counter
	commitLatency     *obs.Histogram
}

// Instrument attaches observability to the tier: view changes,
// retransmission counters, commit latency (layer "byz"), and
// submit/commit/view-install trace events.
func (g *Group) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	g.otr = tr
	g.om = byzMetrics{
		submits:           reg.Counter(obs.NodeWide, "byz", "submits"),
		commits:           reg.Counter(obs.NodeWide, "byz", "commits"),
		clientRetransmits: reg.Counter(obs.NodeWide, "byz", "client_retransmits"),
		voteRefreshes:     reg.Counter(obs.NodeWide, "byz", "vote_refreshes"),
		viewVoteTimeouts:  reg.Counter(obs.NodeWide, "byz", "view_vote_timeouts"),
		viewInstalls:      reg.Counter(obs.NodeWide, "byz", "view_installs"),
		reReplies:         reg.Counter(obs.NodeWide, "byz", "re_replies"),
		executes:          reg.Counter(obs.NodeWide, "byz", "executes"),
		commitLatency:     reg.Histogram(obs.NodeWide, "byz", "commit_latency_ns"),
	}
}

// NewGroup builds a primary tier over the given simnet nodes, wiring a
// message handler onto each.  len(nodes) must be at least 3f+1.
func NewGroup(net *simnet.Network, nodes []simnet.NodeID, f int) (*Group, error) {
	if len(nodes) < 3*f+1 {
		return nil, fmt.Errorf("byz: %d replicas cannot tolerate %d faults (need 3f+1)", len(nodes), f)
	}
	if f < 0 {
		return nil, errors.New("byz: negative f")
	}
	g := &Group{
		net:            net,
		nodes:          append([]simnet.NodeID(nil), nodes...),
		f:              f,
		clients:        make(map[simnet.NodeID]*clientState),
		RequestTimeout: 3 * time.Second,
		retainExecuted: true,
	}
	for i := range nodes {
		g.replicas = append(g.replicas, newReplica(g, i))
		g.signers = append(g.signers, crypt.NewSigner(net.K.Rand()))
	}
	g.hookReplicas()
	return g, nil
}

// hookReplicas registers every replica's handler under the current tag.
// Handlers tag-filter themselves, so re-hooking after SetTag leaves the
// old registrations inert.
func (g *Group) hookReplicas() {
	key := simnet.DemuxKey(g.tag)
	for i, nd := range g.nodes {
		n := g.net.Node(nd)
		for _, k := range replicaKinds {
			n.HandleDemux(k, key, g.replicas[i].handle)
		}
	}
}

// PublicKeys returns the replicas' certificate-verification keys, in
// replica order — what an offline verifier needs alongside f.
func (g *Group) PublicKeys() [][]byte {
	out := make([][]byte, len(g.signers))
	for i, s := range g.signers {
		out[i] = s.Public()
	}
	return out
}

// SetTag scopes the group's protocol messages to an object, so several
// groups can share physical nodes.  Set before the first Submit.
func (g *Group) SetTag(tag guid.GUID) {
	if tag == g.tag {
		return
	}
	g.tag = tag
	g.hookReplicas()
}

// N returns the tier size.
func (g *Group) N() int { return len(g.nodes) }

// F returns the fault tolerance.
func (g *Group) F() int { return g.f }

// SetFault injects a failure mode into replica i.
func (g *Group) SetFault(i int, f Fault) { g.replicas[i].fault = f }

// SetRetainExecuted toggles retention of the full execution order
// (Executed); disable on long runs where nothing reads it.
func (g *Group) SetRetainExecuted(on bool) { g.retainExecuted = on }

// SetExecutor installs the committed-update callback on replica i.
func (g *Group) SetExecutor(i int, e Executor) { g.replicas[i].exec = e }

// Executed returns the IDs executed by replica i, in order — the
// serialisation the tier chose, for checking agreement in tests.
func (g *Group) Executed(i int) []guid.GUID {
	return append([]guid.GUID(nil), g.replicas[i].executed...)
}

// reqState is one outstanding request's reply bookkeeping: per-replica
// (seq, digest, signature) votes in flat arrays indexed by replica id.
// The tier is tiny (3f+1), so arrays replace the nested
// req→seq→replica maps the client side used to allocate per request —
// and retired reqStates recycle through the group's pool.
type reqState struct {
	sent     time.Duration // submit time
	callback func(Result)
	have     []bool
	seqs     []uint64
	digests  []guid.GUID
	sigs     []*sigPromise
	// retx holds the queued retransmission of every Submit call made for
	// this request (one, unless the caller re-submitted it while it was
	// still outstanding).
	retx []sim.Timer
}

// clientState tracks reply quorums per request for one client node.
// Entries live only while the request is outstanding: completion and
// Cancel release every per-request record, so a long run's client
// state is O(in-flight requests), not O(requests ever).  A request is
// outstanding exactly while its `pending` entry exists — late replies
// and the retransmission loop both gate on it.
type clientState struct {
	pending map[guid.GUID]*reqState
	// done remembers recently resolved/cancelled request IDs so a
	// duplicate Submit is ignored; bounded FIFO (doneRing), same horizon
	// argument as the replica-side doneWindow.
	done     map[guid.GUID]bool
	doneRing []guid.GUID
	doneHead int
}

// getReq pulls a scrubbed reqState from the pool (or allocates one
// sized to the tier).
func (g *Group) getReq() *reqState {
	if k := len(g.reqFree); k > 0 {
		rs := g.reqFree[k-1]
		g.reqFree = g.reqFree[:k-1]
		return rs
	}
	n := len(g.replicas)
	return &reqState{
		have: make([]bool, n), seqs: make([]uint64, n),
		digests: make([]guid.GUID, n), sigs: make([]*sigPromise, n),
	}
}

// clearReq retires a resolved (or abandoned) request's bookkeeping,
// records it in the client's bounded done-set, and recycles the record.
func (g *Group) clearReq(cs *clientState, id guid.GUID) {
	if rs, ok := cs.pending[id]; ok {
		delete(cs.pending, id)
		for _, t := range rs.retx {
			t.Stop()
		}
		rs.retx = rs.retx[:0]
		rs.callback = nil
		clear(rs.have)
		clear(rs.seqs)
		clear(rs.digests)
		clear(rs.sigs) // drop promise references for the GC
		g.reqFree = append(g.reqFree, rs)
	}
	if cs.done[id] {
		return
	}
	cs.done[id] = true
	if len(cs.doneRing) < doneWindow {
		cs.doneRing = append(cs.doneRing, id)
	} else {
		delete(cs.done, cs.doneRing[cs.doneHead])
		cs.doneRing[cs.doneHead] = id
		cs.doneHead = (cs.doneHead + 1) % doneWindow
	}
}

// Submit sends a request from the given client node to the primary
// tier.  Following Figure 5 the client sends the full update to the
// primary and small notifications to the other replicas (which arms
// their view-change timers).  onDone fires when f+1 matching replies
// arrive.
func (g *Group) Submit(client simnet.NodeID, req Request, onDone func(Result)) {
	cs := g.clients[client]
	if cs == nil {
		cs = &clientState{
			pending: make(map[guid.GUID]*reqState),
			done:    make(map[guid.GUID]bool),
		}
		g.clients[client] = cs
		g.net.Node(client).HandleDemux(kindReply, simnet.DemuxKey(g.tag),
			func(m simnet.Message) { g.clientHandle(client, m) })
	}
	req.Client = client
	req.Tag = g.tag
	if cs.done[req.ID] {
		// Duplicate submit of a resolved request: replicas will answer
		// with re-replies, which drop at the client; no new callback.
		return
	}
	rs, live := cs.pending[req.ID]
	if !live {
		rs = g.getReq()
		cs.pending[req.ID] = rs
	}
	rs.sent = g.net.K.Now()
	rs.callback = onDone
	g.om.submits.Inc()
	if g.otr != nil {
		g.otr.Emit(obs.Event{
			T: int64(g.net.K.Now()), Node: int(client), Peer: -1,
			Layer: "byz", Event: "submit", ID: req.ID.Uint64(), Bytes: req.Size,
		})
	}

	view := g.currentView()
	primary := int(view) % len(g.replicas)
	for i := range g.replicas {
		if i == primary {
			g.net.Send(client, g.nodes[i], kindRequest, req, req.Size+CHeader)
		} else {
			// Backup notification: digest only.
			g.net.Send(client, g.nodes[i], kindRequest, Request{Tag: g.tag, ID: req.ID, Timestamp: req.Timestamp, Client: client}, CSmall)
		}
	}
	// PBFT client retransmission: if no quorum of replies arrives, the
	// primary may have crashed before sharing the payload — resend the
	// full request to every replica so the post-view-change primary can
	// propose it.
	// The loop lives exactly as long as rs is this request's record:
	// clearReq stops it, so it never fires for a resolved request.
	chain := len(rs.retx)
	var retransmit func()
	retransmit = func() {
		g.net.NoteRetry(kindRequest)
		g.om.clientRetransmits.Inc()
		for i := range g.replicas {
			g.net.Send(client, g.nodes[i], kindRequest, req, req.Size+CHeader)
		}
		rs.retx[chain] = g.net.K.After(2*g.RequestTimeout, retransmit)
	}
	rs.retx = append(rs.retx, g.net.K.After(2*g.RequestTimeout, retransmit))
}

// Cancel abandons a client's outstanding request: the retransmission
// loop stops and any late quorum is ignored.  Layers
// that give up on an update (a session's update timeout) call this so a
// timed-out request cannot hold virtual time hostage.
func (g *Group) Cancel(client simnet.NodeID, id guid.GUID) {
	cs := g.clients[client]
	if cs == nil {
		return
	}
	g.clearReq(cs, id)
}

// currentView reports the highest view any live replica is in — the
// view a fresh client should address.
func (g *Group) currentView() uint64 {
	v := uint64(0)
	for _, r := range g.replicas {
		if r.fault != Crashed && r.view > v {
			v = r.view
		}
	}
	return v
}

func (g *Group) clientHandle(client simnet.NodeID, m simnet.Message) {
	rep, ok := m.Payload.(replyMsg)
	if !ok || rep.Tag != g.tag {
		return
	}
	cs := g.clients[client]
	if cs == nil {
		return
	}
	// Resolved and cancelled requests have no pending entry; their late
	// replies drop here.
	rs, known := cs.pending[rep.ID]
	if !known || rep.From < 0 || rep.From >= len(rs.have) {
		return
	}
	rs.have[rep.From] = true
	rs.seqs[rep.From] = rep.Seq
	rs.digests[rep.From] = rep.Digest
	rs.sigs[rep.From] = rep.Sig
	// Accept when f+1 replicas agree on the same (seq, digest): at least
	// one is honest, so the result is correct (§4.4.3).  Only the
	// arriving reply's seq can newly reach quorum, so that is the only
	// combination to count.
	agree := 0
	for i, ok := range rs.have {
		if ok && rs.seqs[i] == rep.Seq && rs.digests[i] == rep.ID {
			agree++
		}
	}
	if agree < g.f+1 {
		return
	}
	cb := rs.callback
	cert := &CommitCertificate{Tag: g.tag, Seq: rep.Seq, Digest: rep.ID, lazy: make(map[int]*sigPromise)}
	for i, ok := range rs.have {
		if ok && rs.seqs[i] == rep.Seq && rs.digests[i] == rep.ID {
			cert.lazy[i] = rs.sigs[i]
		}
	}
	res := Result{
		Seq:         rep.Seq,
		ID:          rep.ID,
		Latency:     g.net.K.Now() - rs.sent,
		Committed:   true,
		Certificate: cert,
	}
	g.clearReq(cs, rep.ID)
	g.om.commits.Inc()
	g.om.commitLatency.ObserveDuration(res.Latency)
	if g.otr != nil {
		g.otr.Emit(obs.Event{
			T: int64(g.net.K.Now()), Node: int(client), Peer: rep.From,
			Layer: "byz", Event: "commit", ID: rep.ID.Uint64(),
		})
	}
	if cb != nil {
		cb(res)
	}
}

// View reports replica i's current view (diagnostics).
func (g *Group) View(i int) uint64 { return g.replicas[i].view }
