// Package dtree implements dissemination trees (paper §4.4.3): the
// application-level multicast trees that connect an object's primary
// tier to its (possibly numerous) secondary replicas.
//
// The trees are conduits of information in both directions: committed
// updates stream *down* from the primary tier, and secondaries *pull*
// missing state from their parents.  A tree transforms updates into
// invalidations as they progress toward bandwidth-limited leaves — a
// leaf marked low-bandwidth receives a ~100-byte invalidation instead
// of the full update and fetches the data only when it needs it.
//
// A push carries each update's payload to a member once.  Members a
// push names as holders already hold the payload (a client sent them a
// tentative copy, Fig. 5a), so the tree sends each of them only a
// notice of the commit (OnNotice), which the member resolves against
// its copy; a holder without a matching copy fetches the payload from
// its parent before it delivers or forwards.  A message also names the
// holders below its receiver, which are the ones the receiver must
// tell apart when it forwards, at guid.Size bytes each.
//
// Parent selection is latency-greedy with a fanout cap, so the tree
// roughly follows network locality; nodes whose parent fails re-attach
// (self-repair).
package dtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"oceanstore/internal/guid"
	"oceanstore/internal/simnet"
)

// Message kinds used on the wire (simnet accounting tags).
const (
	KindUpdate     = "dtree-update"
	KindInvalidate = "dtree-inval"
	KindPull       = "dtree-pull"
	KindPullReply  = "dtree-pull-reply"
	KindFetch      = "dtree-fetch"
	KindFetchReply = "dtree-fetch-reply"
)

// InvalidationSize is the wire size of an invalidation notice.
const InvalidationSize = 100

// Delivery is what a member receives when an update propagates.
type Delivery struct {
	// Tree scopes the message: several trees (one per object) share
	// physical nodes, and each ignores the others' traffic.
	Tree    uint64
	Payload any
	// Digest names Payload's content.  A push to a holder carries it in
	// place of Payload, which it leaves nil.
	Digest guid.GUID
	// Pos is a pushed update's position in the root's log.
	Pos  int
	Size int
	// Holders are the members that already hold Payload.
	Holders []simnet.NodeID
	// Invalidated is true when this member received only an
	// invalidation notice (bandwidth-limited path); Payload is nil and
	// the member should Pull when it next needs fresh data.
	Invalidated bool
	// Depth is the member's distance from the root in the tree.
	Depth int
}

// Handler consumes deliveries at a member node.
type Handler func(node simnet.NodeID, d Delivery)

// Notices tells a tree how a member that already holds a payload
// receives it.
type Notices struct {
	// Size is a notice's wire size.
	Size int
	// Resolve returns the payload a notice names (by Digest and Pos)
	// from what node holds, or false on a miss.
	Resolve func(node simnet.NodeID, d Delivery) (any, bool)
	// Serve is Resolve at the parent of a child that missed.
	Serve func(parent simnet.NodeID, d Delivery) (any, bool)
}

// PullHandler serves a child's pull request at a parent, returning the
// payload and size to ship back.
type PullHandler func(parent simnet.NodeID) (payload any, size int)

type member struct {
	id       simnet.NodeID
	parent   simnet.NodeID
	children []simnet.NodeID
	depth    int
}

// pullReq asks a parent for fresh state on one tree.
type pullReq struct {
	Tree uint64
}

// treeKey packs a tree ID into a simnet demux key.
func treeKey(id uint64) simnet.DemuxKey {
	var k simnet.DemuxKey
	binary.BigEndian.PutUint64(k[:8], id)
	return k
}

// Demux keys for simnet demux dispatch: each tree's traffic reaches only its
// own members' handlers, however many trees share a node.
func (d Delivery) Demux() simnet.DemuxKey { return treeKey(d.Tree) }
func (p pullReq) Demux() simnet.DemuxKey  { return treeKey(p.Tree) }

// treeCounter hands out process-unique tree IDs.  Incremented
// atomically: concurrent simulations (the seed-sweep drivers) create
// trees from independent kernels at once, and the ID only needs to be
// unique, never sequential.
var treeCounter atomic.Uint64

// Tree is the dissemination tree for one object.
type Tree struct {
	id     uint64
	net    *simnet.Network
	fanout int
	root   simnet.NodeID
	m      map[simnet.NodeID]*member

	onDeliver Handler
	onPull    PullHandler
	notices   Notices
	pullWait  map[simnet.NodeID]func(Delivery)
}

// New creates a tree rooted at root (a primary-tier contact node) in
// which no member has more than fanout (at least 1) children.
func New(net *simnet.Network, root simnet.NodeID, fanout int) *Tree {
	t := &Tree{
		id:       treeCounter.Add(1),
		net:      net,
		fanout:   fanout,
		root:     root,
		m:        map[simnet.NodeID]*member{root: {id: root, parent: simnet.None}},
		pullWait: make(map[simnet.NodeID]func(Delivery)),
	}
	t.hook(root)
	return t
}

// OnDeliver installs the delivery callback shared by all members.
func (t *Tree) OnDeliver(h Handler) { t.onDeliver = h }

// OnPull installs the parent-side pull handler.
func (t *Tree) OnPull(h PullHandler) { t.onPull = h }

// OnNotice installs how holders resolve notices and parents serve the
// members that missed.
func (t *Tree) OnNotice(n Notices) { t.notices = n }

// Root returns the tree root.
func (t *Tree) Root() simnet.NodeID { return t.root }

// Members lists every member node in NodeID order (callers send
// messages and draw randomness based on this slice, so the order must
// not depend on map iteration).
func (t *Tree) Members() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(t.m))
	for id := range t.m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Depth returns a member's depth, or -1 if absent.
func (t *Tree) Depth(id simnet.NodeID) int {
	mb, ok := t.m[id]
	if !ok {
		return -1
	}
	return mb.depth
}

// Parent returns a member's parent (None for the root), or an error if
// the node is not in the tree.
func (t *Tree) Parent(id simnet.NodeID) (simnet.NodeID, error) {
	mb, ok := t.m[id]
	if !ok {
		return simnet.None, fmt.Errorf("dtree: node %d not a member", id)
	}
	return mb.parent, nil
}

// Join attaches a node: its parent is the live member with spare fanout
// closest by modeled latency.  Joining twice is a no-op.
func (t *Tree) Join(id simnet.NodeID) error {
	if _, ok := t.m[id]; ok {
		return nil
	}
	best := simnet.None
	for _, mid := range t.Members() {
		mb := t.m[mid]
		if t.net.Node(mid).Down() || len(mb.children) >= t.fanout {
			continue
		}
		if best == simnet.None || t.net.Latency(id, mid) < t.net.Latency(id, best) {
			best = mid
		}
	}
	if best == simnet.None {
		return errors.New("dtree: no live member with spare capacity")
	}
	t.attach(id, best)
	t.hook(id)
	return nil
}

func (t *Tree) attach(id, parent simnet.NodeID) {
	pm := t.m[parent]
	pm.children = append(pm.children, id)
	t.m[id] = &member{id: id, parent: parent, depth: pm.depth + 1}
}

// memberKinds are the wire kinds a tree member receives.
var memberKinds = []string{KindUpdate, KindInvalidate, KindPull, KindPullReply, KindFetch, KindFetchReply}

// hook installs the simnet message handler for a member node — one
// demux entry for all its wire kinds, keyed by this tree.
func (t *Tree) hook(id simnet.NodeID) {
	t.net.Node(id).HandleDemux(treeKey(t.id), memberKinds, func(msg simnet.Message) { t.handle(id, msg) })
}

func (t *Tree) handle(id simnet.NodeID, msg simnet.Message) {
	if _, ok := t.m[id]; !ok {
		// Stale delivery: the node left the tree after this message was
		// sent (replica management retires members while updates are in
		// flight).  Departed members neither apply nor forward.
		return
	}
	switch msg.Kind {
	case KindUpdate:
		d, ok := msg.Payload.(Delivery)
		if !ok || d.Tree != t.id {
			return
		}
		if d.Payload == nil {
			p, held := t.notices.Resolve(id, d)
			if !held {
				// A miss: the payload comes from the parent, and this
				// member delivers and forwards when it arrives.
				t.net.Send(id, t.m[id].parent, KindFetch, d, t.notices.Size)
				return
			}
			d.Payload = p
		}
		t.deliver(id, d)
	case KindFetch:
		d, ok := msg.Payload.(Delivery)
		if !ok || d.Tree != t.id {
			return
		}
		if p, ok := t.notices.Serve(id, d); ok {
			d.Payload, d.Depth = p, t.depthOf(msg.From)
			t.net.Send(id, msg.From, KindFetchReply, d, d.Size)
		}
	case KindFetchReply:
		d, ok := msg.Payload.(Delivery)
		if !ok || d.Tree != t.id {
			return
		}
		t.deliver(id, d)
	case KindInvalidate:
		d, ok := msg.Payload.(Delivery)
		if !ok || d.Tree != t.id {
			return
		}
		if t.onDeliver != nil {
			t.onDeliver(id, d)
		}
		// Invalidations keep flowing down: descendants of a low-bandwidth
		// node cannot receive more than their ancestor did.
		t.forwardInvalidate(id)
	case KindPull:
		req, ok := msg.Payload.(pullReq)
		if !ok || req.Tree != t.id || t.onPull == nil {
			return
		}
		child := msg.From
		payload, size := t.onPull(id)
		t.net.Send(id, child, KindPullReply, Delivery{Tree: t.id, Payload: payload, Size: size, Depth: t.depthOf(child)}, size)
	case KindPullReply:
		d, ok := msg.Payload.(Delivery)
		if !ok || d.Tree != t.id {
			return
		}
		if cb := t.pullWait[id]; cb != nil {
			delete(t.pullWait, id)
			cb(d)
		}
	}
}

func (t *Tree) depthOf(id simnet.NodeID) int {
	if mb, ok := t.m[id]; ok {
		return mb.depth
	}
	return -1
}

// Push injects a committed update and streams it down the tree (Fig
// 5c): d.Payload, d.Size bytes, at position d.Pos of the root's log.
// A member in d.Holders gets only a notice, Notices.Size bytes, which
// needs OnNotice installed.  The root's own handler fires synchronously.
func (t *Tree) Push(d Delivery) {
	d.Tree = t.id
	t.deliver(t.root, d)
}

// deliver hands an update to a member's handler and relays it on.
func (t *Tree) deliver(id simnet.NodeID, d Delivery) {
	if t.onDeliver != nil {
		t.onDeliver(id, d)
	}
	t.forward(id, d)
}

// forward relays an update from a member to its children: a notice to
// a holder, the payload to any other child, and an invalidation on a
// low-bandwidth edge (§4.4.3).
func (t *Tree) forward(from simnet.NodeID, d Delivery) {
	mb := t.m[from]
	for _, c := range mb.children {
		d.Depth = t.m[c].depth
		if t.net.Node(c).LowBandwidth() {
			t.net.Send(from, c, KindInvalidate,
				Delivery{Tree: t.id, Invalidated: true, Depth: d.Depth}, InvalidationSize)
			continue
		}
		out, size := d, d.Size
		if slices.Contains(d.Holders, c) {
			out.Payload, size = nil, t.notices.Size
		}
		t.net.Send(from, c, KindUpdate, out, size+guid.Size*t.holdersBelow(c, d.Holders))
	}
}

// holdersBelow counts the holders in c's subtree other than c.
func (t *Tree) holdersBelow(c simnet.NodeID, holders []simnet.NodeID) int {
	n := 0
	for _, h := range holders {
		for mb := t.m[h]; mb != nil && mb.parent != simnet.None; mb = t.m[mb.parent] {
			if mb.parent == c {
				n++
				break
			}
		}
	}
	return n
}

func (t *Tree) forwardInvalidate(from simnet.NodeID) {
	mb := t.m[from]
	for _, c := range mb.children {
		t.net.Send(from, c, KindInvalidate,
			Delivery{Tree: t.id, Invalidated: true, Depth: t.m[c].depth}, InvalidationSize)
	}
}

// Pull requests fresh state from the node's parent; cb fires with the
// parent's reply.  Used by invalidated members on demand.
func (t *Tree) Pull(id simnet.NodeID, cb func(Delivery)) error {
	mb, ok := t.m[id]
	if !ok {
		return fmt.Errorf("dtree: node %d not a member", id)
	}
	if mb.parent == simnet.None {
		return errors.New("dtree: root has no parent to pull from")
	}
	t.pullWait[id] = cb
	t.net.Send(id, mb.parent, KindPull, pullReq{Tree: t.id}, InvalidationSize)
	return nil
}

// Leave detaches a node; its children re-attach elsewhere.
func (t *Tree) Leave(id simnet.NodeID) error {
	mb, ok := t.m[id]
	if !ok {
		return fmt.Errorf("dtree: node %d not a member", id)
	}
	if id == t.root {
		return errors.New("dtree: the root cannot leave")
	}
	// Remove from parent's child list.
	pm := t.m[mb.parent]
	for i, c := range pm.children {
		if c == id {
			pm.children = append(pm.children[:i], pm.children[i+1:]...)
			break
		}
	}
	orphans := mb.children
	delete(t.m, id)
	// A pull the node had in flight must not resurrect it on reply.
	delete(t.pullWait, id)
	for _, c := range orphans {
		t.reattach(c)
	}
	return nil
}

// Repair re-attaches every member whose parent is down or missing —
// the introspective tree maintenance of §4.7.2.  It returns how many
// members moved.
func (t *Tree) Repair() int {
	moved := 0
	// Deterministic sweep order: which orphan reattaches first changes
	// where later orphans can go (fanout caps).
	for _, id := range t.Members() {
		if id == t.root {
			continue
		}
		mb := t.m[id]
		if _, ok := t.m[mb.parent]; !ok || t.net.Node(mb.parent).Down() {
			t.reattach(id)
			moved++
		}
	}
	return moved
}

// reattach rewires a (still-member) node to a new parent, avoiding its
// own subtree to keep the structure acyclic.
func (t *Tree) reattach(id simnet.NodeID) {
	mb := t.m[id]
	// Drop the old parent link if any.
	if pm, ok := t.m[mb.parent]; ok {
		for i, c := range pm.children {
			if c == id {
				pm.children = append(pm.children[:i], pm.children[i+1:]...)
				break
			}
		}
	}
	inSubtree := map[simnet.NodeID]bool{}
	t.markSubtree(id, inSubtree)
	best := simnet.None
	for _, mid := range t.Members() {
		pm := t.m[mid]
		if inSubtree[mid] || t.net.Node(mid).Down() || len(pm.children) >= t.fanout {
			continue
		}
		if best == simnet.None || t.net.Latency(id, mid) < t.net.Latency(id, best) {
			best = mid
		}
	}
	if best == simnet.None {
		// Relax the fanout cap rather than orphan the node.
		for _, mid := range t.Members() {
			if inSubtree[mid] || t.net.Node(mid).Down() {
				continue
			}
			if best == simnet.None || t.net.Latency(id, mid) < t.net.Latency(id, best) {
				best = mid
			}
		}
	}
	if best == simnet.None {
		best = t.root // truly nothing live outside the subtree
	}
	pm := t.m[best]
	pm.children = append(pm.children, id)
	mb.parent = best
	t.fixDepths(id, pm.depth+1)
}

func (t *Tree) markSubtree(id simnet.NodeID, set map[simnet.NodeID]bool) {
	set[id] = true
	for _, c := range t.m[id].children {
		t.markSubtree(c, set)
	}
}

func (t *Tree) fixDepths(id simnet.NodeID, depth int) {
	mb := t.m[id]
	mb.depth = depth
	for _, c := range mb.children {
		t.fixDepths(c, depth+1)
	}
}
