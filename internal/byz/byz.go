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
// Every reply is charged a signature's bytes on the wire.  A client
// that passes Submit a callback receives a CommitCertificate built from
// its f+1 matching replies; the signatures in it are made only when the
// certificate is inspected, and a certificate nobody asked for is never
// built.
//
// A tier gets its tag — the object it orders — when it is built, and
// each member registers once under it, so tiers of different objects
// share nodes.  A client submits each request once: the tier
// retransmits it until f+1 replies agree, or until the client cancels
// it.  The primary orders requests as they arrive.
//
// Views change as in PBFT (Castro-Liskov §4.4): a member whose request
// timer fires votes for the next view, carrying its prepared
// certificates and its recent executions, and the new primary's
// new-view message — the one way into a view — holds 2f+1 votes, from
// which every member recomputes the order the view must keep, and the
// payloads of requests it names by ID alone that the primary holds.  A
// crash is simnet's (Network.Crash); the one replica fault injected
// here is lying.  There is no state transfer: a member behind an order's
// start stays behind, and one that lacks a request no new view brought
// waits for the client's retransmission of it.
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

// requestTimeout is how long a backup waits for the primary to
// pre-prepare a request it saw before voting a view change; a client
// retransmits every two of them.
const requestTimeout = 3 * time.Second

// Fault is a replica's failure mode for experiments.
type Fault byte

// Fault modes.
const (
	Honest Fault = iota
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
	Client  simnet.NodeID
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

// CommitCertificate is the offline-verifiable commit proof.  The client
// builds one only for a Submit that asked for its Result, from the f+1
// replies that agreed on (seq, digest).
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

// sigPromise defers a replica's ed25519 signature until somebody
// inspects a commit certificate.  A reply binds its replica to a
// (tag, seq, digest) statement, but in the simulation almost no
// certificate is ever re-verified — signing eagerly made ed25519
// scalar multiplication the hottest function in a soak run.  The
// promise pins the statement when the certificate is built, and a
// certificate admits only replies whose (seq, digest) match, so the
// pinned statement is the one each admitted replica's reply carried:
// deferred evaluation is observationally identical to eager signing.
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
	kindViewChange = "byz-viewchange" // votes and new-view messages
)

// replicaKinds are the wire kinds a tier replica receives and
// replyKinds the one its clients do; handler registration demuxes on
// (tag, kind) so replicas of other objects sharing a node are never
// invoked for this tier's traffic.
var (
	replicaKinds = []string{kindRequest, kindPrePrepare, kindPrepare, kindCommit, kindViewChange}
	replyKinds   = []string{kindReply}
)

// Demux keys (simnet demux dispatch): every protocol payload names its
// tier by tag.
func (r Request) Demux() simnet.DemuxKey        { return simnet.DemuxKey(r.Tag) }
func (m prePrepareMsg) Demux() simnet.DemuxKey  { return simnet.DemuxKey(m.Tag) }
func (m voteMsg) Demux() simnet.DemuxKey        { return simnet.DemuxKey(m.Tag) }
func (m replyMsg) Demux() simnet.DemuxKey       { return simnet.DemuxKey(m.Tag) }
func (m *viewChangeMsg) Demux() simnet.DemuxKey { return simnet.DemuxKey(m.Tag) }
func (m *newViewMsg) Demux() simnet.DemuxKey    { return simnet.DemuxKey(m.Tag) }

// full reports whether the request carries its payload, not only its
// digest (a backup's notification, or an ID a new view names).
func (r Request) full() bool { return r.Payload != nil || r.Size != 0 }

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
}

// viewChangeMsg is a member's vote for NewView.  It carries what the
// new view must keep: a prepared certificate for each slot the sender
// prepared and has not executed, and each execution in its checkpoint
// window, [Floor, Cursor).  A member votes once for a view and re-sends
// the same message.
type viewChangeMsg struct {
	Tag           guid.GUID
	NewView       uint64
	Replica       int
	Floor, Cursor uint64
	Prepared      []preparedCert
	Executed      []executedEntry
}

// preparedCert is a prepared certificate.  Messages pass by reference,
// so it is the slot's pre-prepare and the members, the primary aside,
// whose matching prepares it counted.
type preparedCert struct {
	PrePrepare prePrepareMsg
	Prepares   []int
}

// executedEntry is one execution a vote reports: the request that ran
// at Seq, by ID alone (the zero ID for a null request), or with its
// payload when the sender still holds its slot and the new view's
// primary may lack it (see replica.window).
type executedEntry struct {
	Seq uint64
	Req Request
}

const executedEntrySize = 8 + guid.Size // a sequence number and an ID

// size is the vote's charge: a small message, plus per certificate a
// pre-prepare header and 2f prepares, plus each executed entry and the
// payloads they carry.
func (m *viewChangeMsg) size(f int) int {
	n := CSmall + len(m.Prepared)*(CHeader+2*f*CSmall) + len(m.Executed)*executedEntrySize
	for _, e := range m.Executed {
		n += e.Req.Size
	}
	return n
}

// newViewMsg starts View: Votes, indexed by member, holds the 2f+1 or
// more votes for it that the new primary used, which prove the view and
// fix its order.  Payloads are the requests the order names by ID alone
// (its votes report them executed) whose payload the primary holds, so
// a member that missed one can run it.
type newViewMsg struct {
	Tag      guid.GUID
	View     uint64
	Votes    []*viewChangeMsg
	Payloads []Request
}

// size is the new-view's charge: a small message plus the votes and the
// payloads it carries.
func (m *newViewMsg) size(f int) int {
	n := CSmall
	for _, vc := range m.Votes {
		if vc != nil {
			n += vc.size(f)
		}
	}
	for _, req := range m.Payloads {
		n += req.Size
	}
	return n
}

// Group is one object's primary tier.
type Group struct {
	net      *simnet.Network
	nodes    []simnet.NodeID
	f        int
	replicas []*replica
	// clients holds the nodes with a request outstanding at the tier.
	clients map[simnet.NodeID]*clientState
	// tag scopes this group's messages; replicas of other groups sharing
	// the same physical nodes ignore them.
	tag guid.GUID
	// signers hold each replica's certificate-signing key.
	signers []*crypt.Signer

	// reqFree recycles client-side per-request records (reqState).
	reqFree []*reqState

	diverged int // see Divergences

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
	divergences       *obs.Counter // executions another member's done index contradicts
	outOfWindow       *obs.Counter // messages naming a sequence number outside the watermarks
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
		submits:           reg.Counter("byz", "submits"),
		commits:           reg.Counter("byz", "commits"),
		clientRetransmits: reg.Counter("byz", "client_retransmits"),
		voteRefreshes:     reg.Counter("byz", "vote_refreshes"),
		viewVoteTimeouts:  reg.Counter("byz", "view_vote_timeouts"),
		viewInstalls:      reg.Counter("byz", "view_installs"),
		divergences:       reg.Counter("byz", "divergences"),
		outOfWindow:       reg.Counter("byz", "out_of_window"),
		reReplies:         reg.Counter("byz", "re_replies"),
		executes:          reg.Counter("byz", "executes"),
		commitLatency:     reg.Histogram("byz", "commit_latency_ns"),
	}
}

// NewGroup builds a primary tier over the given simnet nodes and
// registers each member's handler once, under tag: the object the tier
// orders, which scopes its messages so tiers of other objects can share
// the nodes.  len(nodes) must be at least 3f+1.
func NewGroup(net *simnet.Network, nodes []simnet.NodeID, f int, tag guid.GUID) (*Group, error) {
	if len(nodes) < 3*f+1 {
		return nil, fmt.Errorf("byz: %d replicas cannot tolerate %d faults (need 3f+1)", len(nodes), f)
	}
	if f < 0 {
		return nil, errors.New("byz: negative f")
	}
	if len(nodes) > 64 {
		return nil, fmt.Errorf("byz: %d replicas; a tier has at most 64, one commit bit each", len(nodes))
	}
	g := &Group{
		net:     net,
		nodes:   append([]simnet.NodeID(nil), nodes...),
		f:       f,
		clients: make(map[simnet.NodeID]*clientState),
		tag:     tag,
	}
	for i, nd := range nodes {
		r := newReplica(g, i)
		g.replicas = append(g.replicas, r)
		g.signers = append(g.signers, crypt.NewSigner(net.K.Rand()))
		net.Node(nd).HandleDemux(simnet.DemuxKey(tag), replicaKinds, r.handle)
	}
	return g, nil
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

// Divergences is how many executions, on any member, another member's
// done index contradicts; zero while the tier keeps one order.
func (g *Group) Divergences() int { return g.diverged }

// SetFault injects a failure mode into replica i.
func (g *Group) SetFault(i int, f Fault) { g.replicas[i].fault = f }

// SetExecutor installs the committed-update callback on replica i.
func (g *Group) SetExecutor(i int, e Executor) { g.replicas[i].exec = e }

// reqState is one outstanding request's reply bookkeeping: per-replica
// (seq, digest) votes in flat arrays indexed by replica id.
// The tier is tiny (3f+1), so arrays replace the nested
// req→seq→replica maps the client side used to allocate per request —
// and retired reqStates recycle through the group's pool.
type reqState struct {
	sent     time.Duration // submit time
	callback func(Result)
	have     []bool
	seqs     []uint64
	digests  []guid.GUID
	// retx is the request's queued retransmission.
	retx sim.Timer
}

// clientState tracks reply quorums per request for one client node.
// It exists only while the client has a request outstanding at the
// tier: Submit makes it, and the node's reply route, for the first one,
// and clearReq drops both with the last, so a long run's client state
// is O(in-flight requests), not O(clients that ever wrote).  A request
// is outstanding exactly while its `pending` entry exists — late
// replies and the retransmission loop both gate on it.  Nothing
// remembers a request once it resolved.
type clientState struct {
	pending map[guid.GUID]*reqState
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
		have: make([]bool, n), seqs: make([]uint64, n), digests: make([]guid.GUID, n),
	}
}

// clearReq retires a resolved (or abandoned) request's bookkeeping and
// recycles the record; a request that is not outstanding leaves nothing
// to retire.  With the client's last outstanding request its state and
// reply route go too; a late reply then meets no route and drops.
func (g *Group) clearReq(client simnet.NodeID, id guid.GUID) {
	cs := g.clients[client]
	if cs == nil {
		return
	}
	rs := cs.pending[id]
	if rs == nil {
		return
	}
	delete(cs.pending, id)
	if len(cs.pending) == 0 {
		delete(g.clients, client)
		g.net.Node(client).Unhandle(simnet.DemuxKey(g.tag), replyKinds)
	}
	rs.retx.Stop()
	rs.callback = nil
	clear(rs.have)
	clear(rs.seqs)
	clear(rs.digests)
	g.reqFree = append(g.reqFree, rs)
}

// Submit sends a request from the given client node to the primary
// tier.  Following Figure 5 the client sends the full update to the
// primary and small notifications to the other replicas (which arms
// their view-change timers).  onDone fires when f+1 matching replies
// arrive.  Each request is submitted once: a Submit of one the client
// still has outstanding panics.
func (g *Group) Submit(client simnet.NodeID, req Request, onDone func(Result)) {
	req.Client = client
	req.Tag = g.tag
	cs := g.clients[client]
	if cs == nil {
		cs = &clientState{pending: make(map[guid.GUID]*reqState, 1)}
		g.clients[client] = cs
		g.net.Node(client).HandleDemux(simnet.DemuxKey(g.tag), replyKinds,
			func(m simnet.Message) { g.clientHandle(client, m) })
	}
	if cs.pending[req.ID] != nil {
		panic(fmt.Sprintf("byz: request %s submitted again while outstanding", req.ID.Short()))
	}
	rs := g.getReq()
	cs.pending[req.ID] = rs
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
	// Backup notification: digest only, boxed once for every backup.
	var note any = Request{Tag: g.tag, ID: req.ID, Client: client}
	for i := range g.replicas {
		if i == primary {
			g.net.Send(client, g.nodes[i], kindRequest, req, req.Size+CHeader)
		} else {
			g.net.Send(client, g.nodes[i], kindRequest, note, CSmall)
		}
	}
	// PBFT client retransmission: if no quorum of replies arrives, the
	// primary may have crashed before sharing the payload — resend the
	// full request to every replica so the post-view-change primary can
	// propose it.
	// The loop lives exactly as long as rs is this request's record:
	// clearReq stops it, so it never fires for a resolved request.
	var retransmit func()
	retransmit = func() {
		g.net.NoteRetry(kindRequest)
		g.om.clientRetransmits.Inc()
		for i := range g.replicas {
			g.net.Send(client, g.nodes[i], kindRequest, req, req.Size+CHeader)
		}
		rs.retx = g.net.K.After(2*requestTimeout, retransmit)
	}
	rs.retx = g.net.K.After(2*requestTimeout, retransmit)
}

// Cancel abandons a client's outstanding request: the retransmission
// loop stops and any late quorum is ignored.  Layers that give up on an
// update (a session's update timeout) call this so a timed-out request
// cannot hold virtual time hostage.  Cancelling a request that is not
// outstanding does nothing.
func (g *Group) Cancel(client simnet.NodeID, id guid.GUID) {
	g.clearReq(client, id)
}

// Primary returns the node a fresh request's payload goes to: the
// primary of the current view.
func (g *Group) Primary() simnet.NodeID {
	return g.nodes[int(g.currentView())%len(g.replicas)]
}

// currentView reports the highest view any member is in — the view a
// fresh client should address.  A member whose node is down counts too:
// the tier cannot see simnet's crashes.
func (g *Group) currentView() uint64 {
	v := uint64(0)
	for _, r := range g.replicas {
		v = max(v, r.view)
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
	latency := g.net.K.Now() - rs.sent
	var res Result
	if cb != nil {
		// Replica i's reply carried the statement (tag, seqs[i],
		// digests[i]); only replies matching the quorum's are admitted.
		cert := &CommitCertificate{Tag: g.tag, Seq: rep.Seq, Digest: rep.ID, lazy: make(map[int]*sigPromise)}
		for i, ok := range rs.have {
			if ok && rs.seqs[i] == rep.Seq && rs.digests[i] == rep.ID {
				cert.lazy[i] = &sigPromise{signer: g.signers[i], msg: certBytes(g.tag, rs.seqs[i], rs.digests[i])}
			}
		}
		res = Result{Seq: rep.Seq, ID: rep.ID, Latency: latency, Committed: true, Certificate: cert}
	}
	g.clearReq(client, rep.ID)
	g.om.commits.Inc()
	g.om.commitLatency.ObserveDuration(latency)
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
