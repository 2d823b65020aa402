// Package replica assembles OceanStore's floating replicas into the
// full update path of paper Figure 5:
//
//	(a) a client sends an update to the object's primary tier and to
//	    several random secondary replicas;
//	(b) the primary tier runs Byzantine agreement to serialise it while
//	    the secondaries spread it epidemically as tentative data;
//	(c) the commit result is multicast down the dissemination tree to
//	    every secondary, with its position in the primary's log, and
//	    archival fragments are generated and dispersed as a side effect
//	    of commitment (§4.4.4).
//
// A Ring manages one object: its primary tier (package byz), its
// secondary replicas (package epidemic), the dissemination tree
// (package dtree), and commit-coupled archival (package archive).
package replica

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/byz"
	"oceanstore/internal/dtree"
	"oceanstore/internal/epidemic"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/obs"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

// Wire kinds for the client→secondary tentative path.
const (
	kindTentative = "replica-tentative"
	kindGossip    = "replica-gossip"
)

// secondaryKinds are the wire kinds a secondary's demux entry takes.
var secondaryKinds = []string{kindTentative, kindGossip}

// tentMsg carries a Fig-5a tentative copy, naming its object so simnet
// can demux it straight to the right ring's handler.
type tentMsg struct {
	Obj guid.GUID
	U   *update.Update
}

func (m tentMsg) Demux() simnet.DemuxKey   { return simnet.DemuxKey(m.Obj) }
func (q gossipReq) Demux() simnet.DemuxKey { return simnet.DemuxKey(q.Object) }

// proposal is what a client's request carries into agreement: the
// update, and its holders — the secondaries its tentative copies went
// to — at guid.Size bytes each.
type proposal struct {
	u       *update.Update
	holders []simnet.NodeID
}

// noticeSize is a commit notice's wire size (Fig. 5c to a holder): the
// update's log entry (its ID and outcome), its log position and its
// content digest.
const noticeSize = update.EntryWireSize + 8 + guid.Size

// Config tunes a ring.  The primary tier's f follows from its size
// (3f+1 members); every replica's resident epidemic state is bounded by
// epidemic.Window and epidemic.TentativeExpire.
type Config struct {
	// ArchiveEvery archives the object state every N commits (0 = every
	// commit, the paper's tight coupling).
	ArchiveEvery int
	// Archive is the erasure geometry for commit-coupled snapshots.
	Archive archive.Config
	// GossipInterval is the secondary anti-entropy period.
	GossipInterval time.Duration
	// HistoryBound caps the retained version history: each commit
	// retires the chain to its newest HistoryBound versions.
	// 0 = unbounded.
	HistoryBound int
}

// treeFanout bounds the dissemination tree: each member forwards a push
// to at most this many children.
const treeFanout = 4

// DefaultConfig matches the paper's running examples: rate-1/2 coding
// into 32 fragments, 10 s gossip.
func DefaultConfig() Config {
	return Config{
		Archive:        archive.Config{DataShards: 16, TotalFragments: 32},
		GossipInterval: 10 * time.Second,
	}
}

// Secondary is one secondary replica's state.
type Secondary struct {
	Node simnet.NodeID
	Rep  *epidemic.Replica
	// Stale marks an invalidated low-bandwidth replica that must pull
	// before serving strong reads.
	Stale bool
	// Reads counts accesses for replica-management load signals.
	Reads int
}

// Ring is all the floating replicas of a single object.
type Ring struct {
	Object guid.GUID
	cfg    Config
	net    *simnet.Network
	group  *byz.Group
	tree   *dtree.Tree
	arch   *archive.Service

	primaryNodes []simnet.NodeID
	// primaryState is the authoritative committed state: every honest
	// primary executes the same sequence, so one epidemic.Replica stands
	// in for all of them in the simulation.
	primaryState *epidemic.Replica
	secondaries  map[simnet.NodeID]*Secondary
	// byNode is the same membership in node order — the stable order
	// every replica pick and kernel RNG draw is made against.  Rebuilt
	// into a fresh slice when membership changes, so one handed out by
	// Secondaries stays a valid snapshot.
	byNode []*Secondary

	// ArchiveRoots lists the archival GUIDs produced by commits.
	ArchiveRoots []guid.GUID
	commitCount  int
	// history retains committed versions so version-qualified names —
	// permanent hyperlinks (§4.5) — resolve to old data until retired.
	history *object.History
	// OnCommit callbacks fire after a committed update is applied at the
	// primary (the API's callback feature, §4.6).
	onCommit []func(u *update.Update, out update.Outcome)
	// waiters holds each awaited update's one completion callback
	// (AwaitCommit), fired once and discarded.  Sessions use these for
	// their own writes so a long run does not accumulate one broadcast
	// callback per write — the onCommit slice is for durable watchers
	// only.
	waiters map[update.UpdateID]func(update.Outcome)

	// CheckWrite, when set, is the server-side writer-restriction gate
	// (package acl); updates failing it are dropped before agreement.
	CheckWrite func(*update.Update) error

	tally *epidemic.Tally // for secondaries that join later
	om    ringMetrics
}

// ringMetrics covers the ring-level update path: epidemic rounds and
// the volume they move (per-replica commit/abort splits live on the
// epidemic layer, agreement on byz).
type ringMetrics struct {
	gossipRounds *obs.Counter
	gossipMoved  *obs.Counter
	// noticeMisses counts notices whose holder held no matching copy.
	noticeMisses *obs.Counter
}

// Instrument attaches observability to the ring and everything under
// it: the Byzantine tier, the authoritative primary state, and every
// current and future secondary, each of which counts into its hosting
// node's slot in t, the tally every ring on reg shares.  Counting never
// alters behaviour.
func (r *Ring) Instrument(reg *obs.Registry, tr *obs.Tracer, t *epidemic.Tally) {
	r.tally = t
	r.group.Instrument(reg, tr)
	r.primaryState.Instrument(t.At(int(r.primaryNodes[0])))
	for _, s := range r.Secondaries() {
		s.Rep.Instrument(t.At(int(s.Node)))
	}
	r.om = ringMetrics{
		gossipRounds: reg.Counter("replica", "gossip_rounds"),
		gossipMoved:  reg.Counter("replica", "gossip_moved"),
		noticeMisses: reg.Counter("replica", "notice_misses"),
	}
}

// NewRing builds the primary tier on primaryNodes — 3f+1 of them
// tolerate f faults — and wires archival to the given service.  v0 is
// the object's initial version.
func NewRing(net *simnet.Network, primaryNodes []simnet.NodeID, v0 *object.Version, obj guid.GUID, arch *archive.Service, cfg Config) (*Ring, error) {
	g, err := byz.NewGroup(net, primaryNodes, (len(primaryNodes)-1)/3, obj)
	if err != nil {
		return nil, err
	}
	r := &Ring{
		Object:       obj,
		cfg:          cfg,
		net:          net,
		group:        g,
		arch:         arch,
		primaryNodes: append([]simnet.NodeID(nil), primaryNodes...),
		primaryState: epidemic.New(v0),
		secondaries:  make(map[simnet.NodeID]*Secondary),
		history:      object.NewHistory(v0),
		waiters:      make(map[update.UpdateID]func(update.Outcome)),
	}
	r.history.SetBound(cfg.HistoryBound)
	// The dissemination tree is rooted at the first primary.
	r.tree = dtree.New(net, primaryNodes[0], treeFanout)
	r.tree.OnDeliver(r.onTreeDeliver)
	r.tree.OnPull(r.onTreePull)
	r.tree.OnNotice(dtree.Notices{Size: noticeSize, Resolve: r.onNotice, Serve: r.held})
	// Every honest primary executes committed updates; replica 0 drives
	// the shared authoritative state and the commit side effects.
	g.SetExecutor(0, r.executeCommitted)
	if cfg.GossipInterval > 0 {
		net.K.Every(cfg.GossipInterval, r.gossipRound)
	}
	return r, nil
}

// Group exposes the Byzantine tier (fault injection in tests).
func (r *Ring) Group() *byz.Group { return r.group }

// PrimaryNodes returns the primary tier's node IDs (copy).
func (r *Ring) PrimaryNodes() []simnet.NodeID {
	return append([]simnet.NodeID(nil), r.primaryNodes...)
}

// PrimaryAnchor returns the first primary-tier member — the node reads
// fall back to when no floating replica qualifies, without the copy
// PrimaryNodes pays.
func (r *Ring) PrimaryAnchor() simnet.NodeID { return r.primaryNodes[0] }

// IsPrimary reports whether node is a primary-tier member.
func (r *Ring) IsPrimary(node simnet.NodeID) bool { return slices.Contains(r.primaryNodes, node) }

// SecondaryCount reports the number of floating replicas.
func (r *Ring) SecondaryCount() int { return len(r.byNode) }

// Tree exposes the dissemination tree.
func (r *Ring) Tree() *dtree.Tree { return r.tree }

// OnCommit registers a commit callback.  Callbacks are permanent and
// run for EVERY update the primary serialises; per-write completion
// should use AwaitCommit instead, which is O(1) per resolution rather
// than growing the broadcast list.
func (r *Ring) OnCommit(cb func(*update.Update, update.Outcome)) {
	r.onCommit = append(r.onCommit, cb)
}

// AwaitCommit registers the one-shot callback for a single update's
// primary-tier resolution, replacing any earlier one.  The callback is
// discarded after firing; Cancel drops it early.
func (r *Ring) AwaitCommit(id update.UpdateID, cb func(update.Outcome)) {
	r.waiters[id] = cb
}

// fireWaiter resolves u's one-shot completion callback, if any.
func (r *Ring) fireWaiter(u *update.Update, out update.Outcome) {
	id := u.ID()
	if w, ok := r.waiters[id]; ok {
		delete(r.waiters, id)
		w(out)
	}
}

// AddSecondary joins a node as a secondary replica: it enters the
// dissemination tree and starts from a checkpoint of the primary's
// committed state, log window included, instead of replaying history.
func (r *Ring) AddSecondary(node simnet.NodeID) (*Secondary, error) {
	if _, dup := r.secondaries[node]; dup {
		return nil, fmt.Errorf("replica: node %d already a secondary", node)
	}
	if err := r.tree.Join(node); err != nil {
		return nil, err
	}
	sec := &Secondary{Node: node, Rep: epidemic.NewAt(r.primaryState.Checkpoint())}
	sec.Rep.Instrument(r.tally.At(int(node)))
	r.secondaries[node] = sec
	at := sort.Search(len(r.byNode), func(i int) bool { return r.byNode[i].Node > node })
	r.byNode = slices.Insert(slices.Clone(r.byNode), at, sec)
	// Accept tentative copies of this object's updates (Fig 5a) and
	// anti-entropy exchange requests; demuxed by object, so a node
	// serving many rings only runs this ring's handler for its traffic.
	r.net.Node(node).HandleDemux(simnet.DemuxKey(r.Object), secondaryKinds, func(m simnet.Message) {
		switch m.Kind {
		case kindTentative:
			if t, ok := m.Payload.(tentMsg); ok && t.Obj == r.Object {
				r.HandleTentative(node, t.U)
			}
		case kindGossip:
			if req, ok := m.Payload.(gossipReq); ok && req.Object == r.Object {
				r.handleGossip(node, req)
			}
		}
	})
	return sec, nil
}

// Secondary returns a node's secondary state.
func (r *Ring) Secondary(node simnet.NodeID) (*Secondary, bool) {
	s, ok := r.secondaries[node]
	return s, ok
}

// Secondaries returns all secondary replicas in node order.  The slice
// is the ring's own and must not be modified; it is not touched by later
// membership changes.
func (r *Ring) Secondaries() []*Secondary { return r.byNode }

// RemoveSecondary retires a floating replica (replica management).  A
// replica on the dissemination tree's root retires too; the root, a
// primary, stays in the tree.
func (r *Ring) RemoveSecondary(node simnet.NodeID) error {
	if _, ok := r.secondaries[node]; !ok {
		return errors.New("replica: not a secondary")
	}
	if node != r.tree.Root() {
		if err := r.tree.Leave(node); err != nil {
			return err
		}
	}
	delete(r.secondaries, node)
	r.byNode = slices.DeleteFunc(slices.Clone(r.byNode),
		func(sec *Secondary) bool { return sec.Node == node })
	return nil
}

// Submit sends a client update into the ring (Fig 5a): the full update
// to the primary tier, and tentative copies to up to `spread` random
// secondaries, which the request names as its holders.  A copy to the
// node that receives the request's payload rides the request and costs
// its object ID.  onResult fires when the primary tier's quorum of
// replies reaches the client.
func (r *Ring) Submit(client simnet.NodeID, u *update.Update, spread int, onResult func(byz.Result)) {
	var holders []simnet.NodeID
	if spread > 0 && len(r.byNode) > 0 {
		perm := r.net.K.Rand().Perm(len(r.byNode))
		holders = make([]simnet.NodeID, min(spread, len(perm)))
		for j := range holders {
			holders[j] = r.byNode[perm[j]].Node
		}
	}
	req := byz.Request{
		ID:      updateDigest(u),
		Payload: proposal{u, holders},
		Size:    u.WireSize() + guid.Size*len(holders),
	}
	r.group.Submit(client, req, onResult)
	primary := r.group.Primary()
	for _, h := range holders {
		size := u.WireSize()
		if h == primary {
			size = guid.Size
		}
		r.net.Send(client, h, kindTentative, tentMsg{Obj: r.Object, U: u}, size)
	}
}

// Cancel abandons a client's outstanding submission of u: the byz
// client stops retransmitting, any late quorum is dropped, and the
// update's one-shot waiter is discarded (the caller already gave up
// on the answer).  Used by session-level update timeouts so a write
// the client abandoned cannot keep generating traffic or pin memory.
func (r *Ring) Cancel(client simnet.NodeID, u *update.Update) {
	r.group.Cancel(client, updateDigest(u))
	delete(r.waiters, u.ID())
}

// updateDigest names an update for agreement.
func updateDigest(u *update.Update) guid.GUID {
	id := u.ID()
	buf := make([]byte, 0, guid.Size*2+8)
	buf = append(buf, u.Object[:]...)
	buf = append(buf, id.Client[:]...)
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(id.Seq>>(56-8*i)))
	}
	return guid.FromData(buf)
}

// executeCommitted runs on the primary tier when agreement finishes:
// apply the update to the authoritative state, archive a snapshot, and
// push the result down the dissemination tree (Fig 5c).
func (r *Ring) executeCommitted(seq uint64, req byz.Request) {
	p, ok := req.Payload.(proposal)
	if !ok {
		return
	}
	u := p.u
	if r.CheckWrite != nil {
		if err := r.CheckWrite(u); err != nil {
			// Unauthorized writes are ignored by servers (§4.2) — but the
			// outcome is surfaced as an abort so client-side chains
			// (MonotonicWrites, transactions) resolve.
			rejected := update.Outcome{Committed: false, Guard: -1}
			for _, cb := range r.onCommit {
				cb(u, rejected)
			}
			r.fireWaiter(u, rejected)
			return
		}
	}
	// Commit at the log end.  An update executed twice (the tier orders a
	// request again once its first execution has left the members' done
	// indexes) is a duplicate commit while the log's window holds it:
	// the log answers with the logged outcome and does not grow, so the
	// history and the tree are left as they were.
	pos := r.primaryState.CommittedLen()
	out := r.primaryState.Commit(u, pos, r.net.K.Now())
	for _, cb := range r.onCommit {
		cb(u, out)
	}
	r.fireWaiter(u, out)
	grew := r.primaryState.CommittedLen() > pos
	if out.Committed && grew {
		r.history.Add(r.primaryState.CommittedState())
		r.commitCount++
		every := r.cfg.ArchiveEvery
		if every <= 0 {
			every = 1
		}
		if r.arch != nil && r.commitCount%every == 0 {
			snap := snapshotBytes(r.primaryState.CommittedState())
			if root, err := r.arch.Archive(snap, r.cfg.Archive, nil); err == nil {
				r.ArchiveRoots = append(r.ArchiveRoots, root)
			}
		}
	}
	if grew {
		d := dtree.Delivery{Payload: u, Pos: pos, Size: u.WireSize()}
		// A holder drops its copy TentativeExpire after the update's
		// timestamp, so a commit later than that goes to it whole.
		if len(p.holders) > 0 && r.net.K.Now() <= u.Timestamp+epidemic.TentativeExpire {
			d.Holders, d.Digest = p.holders, u.Digest()
		}
		r.tree.Push(d)
	}
}

// onTreeDeliver handles a committed update arriving at a tree member.
func (r *Ring) onTreeDeliver(node simnet.NodeID, d dtree.Delivery) {
	sec, ok := r.secondaries[node]
	if !ok {
		return // the root (a primary) already applied it
	}
	if d.Invalidated {
		sec.Stale = true
		return
	}
	if u, ok := d.Payload.(*update.Update); ok {
		sec.Rep.Commit(u, d.Pos, r.net.K.Now())
	}
}

// stateAt is the replica state a tree member holds: a secondary's own,
// or, on a primary-tier node, the authoritative state.
func (r *Ring) stateAt(node simnet.NodeID) *epidemic.Replica {
	if sec, ok := r.secondaries[node]; ok {
		return sec.Rep
	}
	return r.primaryState
}

// held returns node's copy of the update a notice names, the one whose
// content digest is the committed update's.  It also serves a child
// that missed from its parent's copy.
func (r *Ring) held(node simnet.NodeID, d dtree.Delivery) (any, bool) {
	u := r.stateAt(node).Held(d.Digest, d.Pos)
	return u, u != nil
}

// onNotice resolves a commit notice at a holder to its own copy of the
// update.  Without a matching copy — it was lost or expired in flight,
// the replica is new, or a Byzantine client sent it other content under
// the same ID — the miss is counted and the tree fetches the update
// from the node's parent.
func (r *Ring) onNotice(node simnet.NodeID, d dtree.Delivery) (any, bool) {
	u, ok := r.held(node, d)
	if !ok {
		r.om.noticeMisses.Inc()
	}
	return u, ok
}

// onTreePull serves a child's pull: ship the parent's checkpoint — its
// committed log window, the updates the parent still holds for the
// window's last positions, and the base state the child adopts if it
// lags past them — so the child can catch up (the paper's "pull missing
// information from parents").  The wire carries what travels: a whole
// update where the parent holds one, an ID and outcome where it does
// not, and the base state unless the updates reach back to position 0,
// from where the child can always replay.
func (r *Ring) onTreePull(parent simnet.NodeID) (any, int) {
	c := r.stateAt(parent).Checkpoint()
	size := 64
	for pos := c.Start; pos < c.Len(); pos++ {
		if u := c.Update(pos); u != nil {
			size += u.WireSize()
		} else {
			size += update.EntryWireSize
		}
	}
	if c.ReplayFrom() > 0 {
		size += c.Base.BytesStored()
	}
	return c, size
}

// Refresh pulls a stale secondary up to date; cb fires when done.
func (r *Ring) Refresh(node simnet.NodeID, cb func()) error {
	sec, ok := r.secondaries[node]
	if !ok {
		return errors.New("replica: not a secondary")
	}
	return r.tree.Pull(node, func(d dtree.Delivery) {
		if c, ok := d.Payload.(epidemic.Checkpoint); ok {
			sec.Rep.CatchUp(c, r.net.K.Now())
			sec.Stale = false
		}
		if cb != nil {
			cb()
		}
	})
}

// gossipReq opens one anti-entropy exchange (the paper's epidemic
// communication): the initiator ships its summary; the responder
// reconciles on receipt.
type gossipReq struct {
	Object guid.GUID
	From   simnet.NodeID
}

// gossipRound starts epidemic exchanges between random secondary pairs
// (plus one with a primary).  The reconciliation happens when the
// request message is DELIVERED, so gossip rides the simulated network:
// it pays latency, can be dropped, and its bytes are accounted under
// the "replica-gossip" kind.
func (r *Ring) gossipRound() {
	nodes := r.byNode
	if len(nodes) == 0 {
		return
	}
	r.om.gossipRounds.Inc()
	rng := r.net.K.Rand()
	pairs := (len(nodes) + 1) / 2
	for i := 0; i < pairs; i++ {
		a := nodes[rng.Intn(len(nodes))]
		b := nodes[rng.Intn(len(nodes))]
		if a != b {
			r.net.Send(a.Node, b.Node, kindGossip, gossipReq{Object: r.Object, From: a.Node}, 64)
		}
	}
	// One pair per round syncs with the primary state so committed data
	// reaches partitioned corners eventually.
	s := nodes[rng.Intn(len(nodes))]
	r.net.Send(r.primaryNodes[0], s.Node, kindGossip, gossipReq{Object: r.Object, From: r.primaryNodes[0]}, 64)
}

// handleGossip reconciles when an exchange request arrives, then sends
// an accounting message back sized by what actually moved.
func (r *Ring) handleGossip(at simnet.NodeID, req gossipReq) {
	target, ok := r.secondaries[at]
	if !ok {
		return
	}
	// A primary initiates one exchange a round with its own state.
	moved := epidemic.AntiEntropy(r.stateAt(req.From), target.Rep, r.net.K.Now())
	r.om.gossipMoved.Add(int64(moved))
	if moved > 0 {
		// The reply carries the reconciled updates; estimate ~512 B each
		// for accounting purposes.
		r.net.Send(at, req.From, kindGossip, nil, 64+moved*512)
	}
}

// handleTentative ingests a Fig-5a tentative copy at a secondary.  The
// ring owns no node handlers itself (byz and dtree installed theirs),
// so core dispatches these; tests may call it directly.
func (r *Ring) HandleTentative(node simnet.NodeID, u *update.Update) {
	if sec, ok := r.secondaries[node]; ok {
		sec.Rep.AddTentative(u)
	}
}

// ArchiveNow snapshots the current committed state into deep archival
// storage immediately — the §4.5 path for initial versions and objects
// going idle, outside the commit-coupled cadence.
func (r *Ring) ArchiveNow() (guid.GUID, error) {
	if r.arch == nil {
		return guid.Zero, errors.New("replica: no archival service")
	}
	snap := snapshotBytes(r.primaryState.CommittedState())
	root, err := r.arch.Archive(snap, r.cfg.Archive, nil)
	if err != nil {
		return guid.Zero, err
	}
	r.ArchiveRoots = append(r.ArchiveRoots, root)
	return root, nil
}

// History exposes the retained committed versions: the resolution
// target for version-qualified permanent hyperlinks.
func (r *Ring) History() *object.History { return r.history }

// PrimaryState exposes the authoritative committed replica.
func (r *Ring) PrimaryState() *epidemic.Replica { return r.primaryState }

// PrefixProblems checks that every secondary is on the primary tier's
// order (§4.4.3): its committed log must be a prefix of the primary's.
// It returns one line for each secondary that is not, in node order.
func (r *Ring) PrefixProblems() []string {
	var out []string
	for _, sec := range r.byNode {
		if !sec.Rep.PrefixOf(r.primaryState) {
			out = append(out, fmt.Sprintf("object %s: the secondary on node %d holds %d commits that are not a prefix of the primary's %d",
				r.Object.Short(), sec.Node, sec.Rep.CommittedLen(), r.primaryState.CommittedLen()))
		}
	}
	return out
}

// CommittedVersion returns the authoritative committed version.
func (r *Ring) CommittedVersion() *object.Version { return r.primaryState.CommittedState() }

// snapshotBytes serialises a version for archival.  The archival form
// is a flat, self-contained byte string: metadata, block table, and the
// encrypted blocks (still ciphertext — archives learn nothing either).
func snapshotBytes(v *object.Version) []byte {
	var buf []byte
	put64 := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(x>>(56-8*i)))
		}
	}
	put64(v.Num)
	put64(uint64(v.Size))
	put64(uint64(len(v.Top)))
	for _, tp := range v.Top {
		put64(uint64(tp))
	}
	buf = append(buf, v.Prev[:]...)
	put64(uint64(len(v.Blocks)))
	for _, b := range v.Blocks {
		put64(b.Tag)
		put64(uint64(len(b.CT)))
		buf = append(buf, b.CT...)
	}
	return buf
}

// ParseSnapshot reverses snapshotBytes, reconstructing the version from
// a deep-archival copy.
func ParseSnapshot(buf []byte) (*object.Version, error) {
	take64 := func() (uint64, error) {
		if len(buf) < 8 {
			return 0, errors.New("replica: truncated snapshot")
		}
		var x uint64
		for i := 0; i < 8; i++ {
			x = x<<8 | uint64(buf[i])
		}
		buf = buf[8:]
		return x, nil
	}
	v := &object.Version{}
	num, err := take64()
	if err != nil {
		return nil, err
	}
	v.Num = num
	size, err := take64()
	if err != nil {
		return nil, err
	}
	v.Size = int64(size)
	nTop, err := take64()
	if err != nil {
		return nil, err
	}
	if nTop > uint64(len(buf)/8) {
		return nil, errors.New("replica: corrupt snapshot top count")
	}
	for i := uint64(0); i < nTop; i++ {
		tp, err := take64()
		if err != nil {
			return nil, err
		}
		v.Top = append(v.Top, uint32(tp))
	}
	if len(buf) < guid.Size {
		return nil, errors.New("replica: truncated snapshot prev")
	}
	copy(v.Prev[:], buf[:guid.Size])
	buf = buf[guid.Size:]
	nBlocks, err := take64()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nBlocks; i++ {
		tag, err := take64()
		if err != nil {
			return nil, err
		}
		l, err := take64()
		if err != nil {
			return nil, err
		}
		if uint64(len(buf)) < l {
			return nil, errors.New("replica: truncated snapshot block")
		}
		v.Blocks = append(v.Blocks, object.Block{Tag: tag, CT: append([]byte(nil), buf[:l]...)})
		buf = buf[l:]
	}
	return v, nil
}
