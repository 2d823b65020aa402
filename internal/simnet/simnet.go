// Package simnet simulates the wide-area network that OceanStore's
// protocols run over.
//
// The paper's evaluation quantities — bytes sent per update (Fig 6),
// commit latency under 100 ms WAN hops (§4.4.5), location hop counts
// (§4.3), fragment retrieval under drops (§5) — depend only on the
// protocols and the link model, so we substitute the authors' testbed
// with a simulated network: nodes placed on a 2-D plane, per-message
// latency = base + c·distance, per-message byte accounting, and
// injectable faults (node crashes, message drops, partitions).
//
// Faults come in two layers.  Config carries the static link model
// (latency and DropProb); a pluggable FaultPlan (package fault) adds a
// deterministic schedule of per-link drop/delay rules on top.  Crash
// and recovery are first-class kernel events — Crash/Recover and their
// scheduled variants — so that a down node sheds its partition state,
// drops due to crashes are accounted separately from other losses, and
// every liveness transition is counted and traced.
//
// # Node layout
//
// Per-node state lives in struct-of-arrays form on the Network — one
// dense slice per hot field (liveness flags, domain, position) —
// rather than in per-node heap objects, so a million-node world costs
// tens of megabytes and the send path's crash/partition checks read
// adjacent cache lines.  Node is a 16-byte value handle over that
// storage.
//
// # Delivery
//
// Messages due at the same virtual tick share one kernel event: the
// heap sees one push per distinct delivery time, not one per message,
// and the per-tick buffers are pooled, so steady-state messaging
// allocates nothing.  Within a tick messages are delivered in send
// order (see enqueue for the exact ordering contract).
//
// A delivered message reaches code two ways, in this order: the
// network-wide handlers (HandleAll), which services attending many
// nodes register once, and then the destination's handlers keyed by
// the payload's protocol instance (HandleDemux).
package simnet

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
	"unsafe"

	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
)

// NodeID indexes a node within a Network.
type NodeID int

// None is the nil node ID.
const None NodeID = -1

// Message is a unit of simulated communication.  Size is the estimated
// wire size in bytes; Kind tags the protocol for per-class accounting.
// ID is assigned by Send (1, 2, 3, ... in send order) so traces can
// correlate a send with its delivery or drop.
type Message struct {
	From, To NodeID
	Kind     string
	Payload  any
	Size     int
	ID       uint64
}

// Handler consumes messages delivered to a node.
type Handler func(Message)

// DemuxKey names the protocol instance (object ring, tree, tier) a
// message belongs to — GUID-sized; layers with smaller IDs pack them.
type DemuxKey [20]byte

// Demuxed is implemented by payloads that can name their protocol
// instance.  Delivery uses it to dispatch straight to the handlers
// registered for the key: a node serving thousands of object rings
// pays one binary search over its instances per delivery, not
// thousands of type-assert-and-ignore handler calls.
type Demuxed interface{ Demux() DemuxKey }

// demuxSlot is one HandleDemux registration: a protocol instance's key,
// the wire kinds it takes, and its handler.  A node's slots sit in one
// slice sorted by the key's first word — every layer puts its instance
// ID's entropy there — and in registration order among equal words, so
// a delivery binary-searches eight bytes, not a string and twenty, and
// then compares (key, kind) against the few slots that share the word.
type demuxSlot struct {
	key   DemuxKey
	kinds []string
	h     Handler
}

func (k DemuxKey) word() uint64 { return binary.LittleEndian.Uint64(k[:8]) }

// noSlots is the table of a node whose registrations were all removed:
// empty, but not nil like a node's that never had one.
var noSlots = []demuxSlot{}

// demuxFrom returns the index of the first slot whose key word is at
// least w.
func demuxFrom(tab []demuxSlot, w uint64) int {
	i, _ := slices.BinarySearchFunc(tab, w, func(s demuxSlot, w uint64) int { return cmp.Compare(s.key.word(), w) })
	return i
}

// GlobalHandler consumes messages delivered to any node.  Services
// that attend many servers (the archival store and its auditor, the
// remote-read service) register one of these instead of closing a
// handler over each of a million IDs.
type GlobalHandler func(to NodeID, m Message)

// Node is a 16-byte value handle onto one simulated machine's state,
// which lives in the Network's struct-of-arrays storage.
type Node struct {
	ID  NodeID
	net *Network
}

// Addr returns the node's server GUID (hash-sized random identity).
func (n Node) Addr() guid.GUID { return n.net.addrs[n.ID] }

// Domain is the administrative domain the node belongs to; the
// archival layer avoids placing correlated fragments in one domain.
func (n Node) Domain() int { return int(n.net.domains[n.ID]) }

// Down reports whether the node is crashed: it neither sends nor
// receives.
func (n Node) Down() bool { return n.net.down[n.ID] }

// LowBandwidth reports a leaf node where dissemination trees transform
// updates into invalidations (paper §4.4.3).
func (n Node) LowBandwidth() bool { return n.net.lowbw[n.ID] }

// SetLowBandwidth marks or unmarks the node as a low-bandwidth leaf.
func (n Node) SetLowBandwidth(v bool) { n.net.lowbw[n.ID] = v }

// HandleDemux registers h for messages whose payload implements
// Demuxed with this key and whose kind is one of kinds (the slice is
// kept, not copied).  Dispatch is a search of the node's instances;
// handlers for other instances on the same node are never invoked.
// Every registration matching a delivery runs, in registration order,
// after the network-wide HandleAll handlers.
func (n Node) HandleDemux(key DemuxKey, kinds []string, h Handler) {
	tab := n.net.demux[n.ID]
	w := key.word()
	i := demuxFrom(tab, w)
	for i < len(tab) && tab[i].key.word() == w {
		i++
	}
	slot := demuxSlot{key: key, kinds: kinds, h: h}
	if n.net.dispatching {
		// A delivery may be walking this table: give the node a fresh
		// array, so the walk neither skips a slot nor meets this one.
		n.net.demux[n.ID] = slices.Concat(tab[:i], []demuxSlot{slot}, tab[i:])
		return
	}
	n.net.demux[n.ID] = slices.Insert(tab, i, slot)
}

// Unhandle removes the registration HandleDemux made with this key and
// this kinds slice (the same slice, not an equal one); it does nothing
// if there is none.  Called during a delivery, it gives the node a
// fresh array, as HandleDemux does, so the delivery in progress walks
// the slots it began with: it neither skips a slot nor revisits one.
// A table that falls to a quarter of its capacity gets a fresh array
// too, of its own size, so a node's table shrinks with its
// registrations.
// A node whose last registration goes still takes deliveries, which no
// slot matches: only a node that never registered one drops them as
// unhandled.
func (n Node) Unhandle(key DemuxKey, kinds []string) {
	tab := n.net.demux[n.ID]
	w := key.word()
	for i := demuxFrom(tab, w); i < len(tab) && tab[i].key.word() == w; i++ {
		if s := tab[i]; s.key != key || len(s.kinds) != len(kinds) || unsafe.SliceData(s.kinds) != unsafe.SliceData(kinds) {
			continue
		}
		switch {
		case len(tab) == 1:
			tab = noSlots
		case n.net.dispatching || len(tab)-1 <= cap(tab)/4:
			tab = slices.Concat(tab[:i], tab[i+1:])
		default:
			tab = slices.Delete(tab, i, i+1)
		}
		n.net.demux[n.ID] = tab
		return
	}
}

// Handlers reports how many HandleDemux registrations the node holds
// for key.
func (n Node) Handlers(key DemuxKey) int {
	tab, w, c := n.net.demux[n.ID], key.word(), 0
	for i := demuxFrom(tab, w); i < len(tab) && tab[i].key.word() == w; i++ {
		if tab[i].key == key {
			c++
		}
	}
	return c
}

// Config sets the link model of a Network.
type Config struct {
	// BaseLatency is added to every message (propagation floor).
	BaseLatency time.Duration
	// LatencyPerUnit converts plane distance into latency.  Zero gives a
	// uniform-latency network, which the paper's §4.4.5 estimate assumes.
	LatencyPerUnit time.Duration
	// DropProb drops each message independently with this probability.
	DropProb float64
}

// Stats aggregates traffic counters.  ByKind maps the message Kind tag
// to bytes sent, which lets an experiment isolate one protocol's cost.
//
// MessagesDropped is the total loss count and breaks down as
// DroppedByCrash + DroppedByPartition + DroppedByFault + DroppedByLoss
// + DroppedNoHandler.  Messages a crashed sender never put on the wire
// count under DroppedByCrash (and the total) but not under
// MessagesSent, so sent = delivered + dropped only holds in crash-free
// runs.
type Stats struct {
	MessagesSent      int
	MessagesDelivered int
	MessagesDropped   int
	// Drop breakdown.
	DroppedByCrash     int // sender or receiver was down
	DroppedByPartition int
	DroppedByFault     int // a FaultPlan verdict
	DroppedByLoss      int // Config.DropProb random loss
	DroppedNoHandler   int // delivered to a node that never registered a handler
	// Crashes and Recoveries count liveness transitions.
	Crashes    int
	Recoveries int
	// Retries counts protocol-level retransmissions (routing hop
	// retries, fragment re-requests, agreement retransmits), reported by
	// the layers through NoteRetry.
	Retries       int
	RetriesByKind map[string]int
	BytesSent     int64
	ByKind        map[string]int64
}

// FaultPlan is the pluggable fault-schedule hook (package fault
// provides the standard implementation).  FilterSend is consulted once
// per send, after crash and partition checks: returning drop kills the
// message (accounted under DroppedByFault); extraDelay is added to the
// modeled latency.  Implementations must draw any randomness from the
// network's kernel so runs stay deterministic.
type FaultPlan interface {
	FilterSend(m Message, now time.Duration) (drop bool, extraDelay time.Duration)
}

// TraceEvent records one network-level event for determinism checks and
// debugging.  Event is one of "send", "deliver", "drop-crash",
// "drop-partition", "drop-fault", "drop-loss", "drop-nohandler",
// "crash", "recover".
type TraceEvent struct {
	Time     time.Duration
	From, To NodeID
	Kind     string
	Size     int
	Event    string
}

// Network is the simulated fabric.  All sends and deliveries run on the
// underlying sim.Kernel's virtual clock.
type Network struct {
	K   *sim.Kernel
	cfg Config

	// Struct-of-arrays node state, indexed by NodeID.
	addrs   []guid.GUID
	xs, ys  []float64
	domains []int32
	down    []bool
	lowbw   []bool
	// demux holds each node's HandleDemux registrations, sorted by key
	// word; nil for nodes that never had one.
	// dispatching is set while a delivery walks a demux table.
	demux       [][]demuxSlot
	dispatching bool

	// global handlers fire for every delivered message, before the
	// keyed ones in demux.
	global []GlobalHandler

	// counts is every count the network keeps; Stats and an attached
	// registry both read it.
	counts counts
	// snapByKind/snapRetries are the reusable map payloads handed out
	// by Stats() — the snapshot path allocates nothing in steady state.
	snapByKind  map[string]int64
	snapRetries map[string]int

	// partition[i] groups nodes; messages between different groups drop.
	// Group 0 is the default (no partition).
	partition []int32
	plan      FaultPlan
	trace     func(TraceEvent)
	topology  []func(added []Node)

	// In-flight messages: those due at the same tick share one queued
	// batch and one kernel event.  Drained batches park on a free list
	// so steady-state delivery allocates nothing per tick.
	batches   map[time.Duration]*msgBatch
	batchFree []*msgBatch

	// Observability (Instrument): om holds the attached registry's link
	// counts, otr the opt-in trace ring.  Both nil in uninstrumented
	// runs, so the send path pays two nil checks.
	om        *netMetrics
	otr       *obs.Tracer
	nextMsgID uint64
}

// event is a network-level event.  The trace sinks want its name; the
// send path wants to count it without comparing strings.
type event uint8

const (
	evSend event = iota
	evDeliver
	evDropCrash
	evDropPartition
	evDropFault
	evDropLoss
	evDropNoHandler
	evCrash
	evRecover
	numEvents
)

// eventNames are the TraceEvent.Event / obs.Event.Event strings;
// eventCounters the node-wide registry series that counts each event.
var (
	eventNames = [numEvents]string{
		"send", "deliver", "drop-crash", "drop-partition", "drop-fault",
		"drop-loss", "drop-nohandler", "crash", "recover",
	}
	eventCounters = [numEvents]string{
		"msgs_sent", "msgs_delivered", "drop_crash", "drop_partition", "drop_fault",
		"drop_loss", "drop_nohandler", "crashes", "recoveries",
	}
)

func (e event) isDrop() bool { return e >= evDropCrash && e <= evDropNoHandler }

// counts is what the network counts: events, and by message kind the
// bytes sends carried (Stats.ByKind) and NoteRetry's retransmissions.
// A run has a couple of dozen wire kinds, all string constants, so a
// send scans a short slice (a length compare, then a pointer compare)
// instead of hashing the kind per message.
type counts struct {
	events         [numEvents]int64
	bytes, retries []kindCount
}

// add adds sign times o into c.
func (c *counts) add(o *counts, sign int64) {
	for ev, v := range o.events {
		c.events[ev] += sign * v
	}
	for _, kc := range o.bytes {
		c.bytes = addKind(c.bytes, kc.kind, sign*kc.n)
	}
	for _, kc := range o.retries {
		c.retries = addKind(c.retries, kc.kind, sign*kc.n)
	}
}

// netMetrics is one registry's view of the network.  The registry
// counts what happens while it is attached: each node-wide series reads
// cur less base, and the per-link counts live here, in links and drops,
// read as two families over every link — simnet/link_bytes and
// simnet/link_drops, one series per link keyed by its packed key (§5's
// per-flow observation) — which a dump rolls into a total and a summary
// each, so reading them allocates nothing.
type netMetrics struct {
	reg *obs.Registry
	// cur is the network's counts while reg is attached, and zero
	// counts of its own once reg is re-pointed away.  base is the
	// network's counts when reg was attached, less every count since
	// zeroed under it, by ResetStats or by re-pointing.
	cur  *counts
	base counts
	// kinds are the message kinds that retried while reg was attached,
	// each with its retries_<kind> series.
	kinds []string
	links linkTable
	// drops counts each link's lost messages by link key: a run drops
	// few, so they take a small map rather than a column in every slot.
	drops map[uint64]int64
}

// linkTable holds every link's byte count, found from the packed key:
// one open-addressed array of 16-byte, pointer-free slots, probed once
// per send.  One table for the world rather than one per sender — no
// spine of 100k headers — and a hit costs a multiply and one cache
// line of slots, where a generic map walks a directory, a control word
// and a slot.
type linkTable struct {
	slots []linkSlot // length a power of two; a slot is free while key == 0
	used  int
	shift uint // 64 - log2(len(slots))
}

type linkSlot struct {
	key   uint64
	bytes int64
}

// linkKey packs a link as (to+1, from), so no key is 0 and keys sort by
// destination, then source.
func linkKey(from, to NodeID) uint64 {
	return uint64(uint32(to)+1)<<32 | uint64(uint32(from))
}

// slot returns the slot holding key, or the free slot where it belongs.
func (t *linkTable) slot(key uint64) *linkSlot {
	mask := uint64(len(t.slots) - 1)
	for i := key * 0x9E3779B97F4A7C15 >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == 0 || s.key == key {
			return s
		}
	}
}

// at returns key's slot, claiming one for a link not seen before.
func (t *linkTable) at(key uint64) *linkSlot {
	s := t.slot(key)
	if s.key == 0 {
		t.reserve()
		s = t.slot(key)
		s.key = key
		t.used++
	}
	return s
}

// reserve makes room for one more link, keeping the table under half
// full so probe sequences stay within a cache line or two.  It may move
// every slot.
func (t *linkTable) reserve() {
	if 2*(t.used+1) <= len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]linkSlot, max(2*len(old), 1024))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	for _, s := range old {
		if s.key != 0 {
			*t.slot(s.key) = s
		}
	}
}

// linkBytes serves the registry every link's bytes, keyed by link key,
// in the table's slot order.
type linkBytes struct{ m *netMetrics }

func (s linkBytes) Each(visit func(link int, v int64)) {
	for _, sl := range s.m.links.slots {
		if sl.key != 0 {
			visit(int(sl.key), sl.bytes)
		}
	}
}

// linkDrops serves the registry the drops of every link that lost a
// message, keyed by link key, in the table's slot order; the rest have
// none to list.
type linkDrops struct{ m *netMetrics }

func (s linkDrops) Each(visit func(link int, v int64)) {
	if len(s.m.drops) == 0 {
		return
	}
	for _, sl := range s.m.links.slots {
		if n := s.m.drops[sl.key]; sl.key != 0 && n != 0 {
			visit(int(sl.key), n)
		}
	}
}

// Instrument attaches an obs registry and/or tracer to the network.
// Pass nil for either to disable that half; call again to re-point.
// The registry reads the network's own counts and counts only what
// happens while it is attached: one re-pointed away keeps the counts
// it was attached for, and one attached again adds the new counts to
// them.  Instrumentation never alters behaviour — no RNG draws, no
// events — so instrumented and bare runs take identical trajectories.
func (n *Network) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	n.otr = tr
	if old := n.om; old != nil {
		old.base.add(&n.counts, -1)
		old.cur = &counts{}
	}
	if reg == nil {
		n.om = nil
		return
	}
	m := &netMetrics{reg: reg, cur: &n.counts, drops: make(map[uint64]int64)}
	m.base.add(&n.counts, 1)
	for ev, name := range eventCounters {
		reg.CounterSource("simnet", name, obs.Value(func() int64 { return m.cur.events[ev] - m.base.events[ev] }))
	}
	reg.CounterSource("simnet", "bytes_sent", obs.Value(func() int64 { return total(m.cur.bytes) - total(m.base.bytes) }))
	reg.CounterSource("simnet", "retries", obs.Value(func() int64 { return total(m.cur.retries) - total(m.base.retries) }))
	reg.CounterSource("simnet", "link_bytes", linkBytes{m})
	reg.CounterSource("simnet", "link_drops", linkDrops{m})
	m.links.reserve()
	n.om = m
}

// New creates an empty network over kernel k.
func New(k *sim.Kernel, cfg Config) *Network {
	return &Network{
		K:       k,
		cfg:     cfg,
		batches: make(map[time.Duration]*msgBatch),
	}
}

// kindCount is one message kind's count, in a slice scanned by kind.
type kindCount struct {
	kind string
	n    int64
}

// addKind adds v to kind's count in cs.
func addKind(cs []kindCount, kind string, v int64) []kindCount {
	for i := range cs {
		if cs[i].kind == kind {
			cs[i].n += v
			return cs
		}
	}
	return append(cs, kindCount{kind, v})
}

// kindValue is kind's count in cs, 0 if it has none.
func kindValue(cs []kindCount, kind string) int64 {
	for _, kc := range cs {
		if kc.kind == kind {
			return kc.n
		}
	}
	return 0
}

// total is the count of every kind in cs.
func total(cs []kindCount) int64 {
	var n int64
	for _, kc := range cs {
		n += kc.n
	}
	return n
}

// AddNode places a node at (x, y) and returns it.  The node's GUID is
// drawn from the kernel's seeded randomness, mimicking the random
// node-ID assignment of the Plaxton scheme.
func (n *Network) AddNode(x, y float64) Node {
	id := NodeID(len(n.addrs))
	addr := guid.Random(n.K.Rand())
	n.addrs = append(n.addrs, addr)
	n.xs = append(n.xs, x)
	n.ys = append(n.ys, y)
	n.domains = append(n.domains, 0)
	n.down = append(n.down, false)
	n.lowbw = append(n.lowbw, false)
	n.demux = append(n.demux, nil)
	n.partition = append(n.partition, 0)
	return Node{ID: id, net: n}
}

// AddRandomNodes places count nodes uniformly on the unit square scaled
// by extent, assigning each to one of domains administrative domains.
// Topology callbacks (OnTopology) fire once for the whole batch.
func (n *Network) AddRandomNodes(count int, extent float64, domains int) []Node {
	out := make([]Node, count)
	for i := range out {
		nd := n.AddNode(n.K.Rand().Float64()*extent, n.K.Rand().Float64()*extent)
		if domains > 0 {
			n.domains[nd.ID] = int32(n.K.Rand().Intn(domains))
		}
		out[i] = nd
	}
	for _, fn := range n.topology {
		fn(out)
	}
	return out
}

// OnTopology registers a callback fired after every batch of nodes is
// added (AddRandomNodes, GrowAt).  Layers that keep per-node state
// (meshes, replica sets, workload targets) extend themselves
// incrementally from the batch instead of rescanning the world — the
// piece that keeps growing a world O(added), not O(n²).
func (n *Network) OnTopology(fn func(added []Node)) {
	n.topology = append(n.topology, fn)
}

// GrowAt schedules count new nodes to join at absolute virtual time t.
// Positions and domains draw from the kernel RNG at the event's
// execution time, so growth interleaves deterministically with the
// rest of the run.
func (n *Network) GrowAt(t time.Duration, count int, extent float64, domains int) {
	n.K.At(t, func() { n.AddRandomNodes(count, extent, domains) })
}

// Bounce schedules one crash/recover cycle: down at `at`, back up
// downFor later — the unit of timed churn the soak driver composes.
func (n *Network) Bounce(id NodeID, at, downFor time.Duration) {
	n.CrashAt(at, id)
	n.RecoverAt(at+downFor, id)
}

// Node returns a handle on the node with the given ID.
func (n *Network) Node(id NodeID) Node { return Node{ID: id, net: n} }

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.addrs) }

// SetFaultPlan installs (or, with nil, removes) the fault-schedule
// hook.  At most one plan is active at a time.
func (n *Network) SetFaultPlan(p FaultPlan) { n.plan = p }

// SetTrace installs (or, with nil, removes) the event trace callback.
func (n *Network) SetTrace(fn func(TraceEvent)) { n.trace = fn }

// HandleAll registers a handler that sees every delivered message,
// whatever its destination, before the destination's HandleDemux
// handlers.  Services that attend many nodes use it to attend a
// million of them without a million closures.
func (n *Network) HandleAll(h GlobalHandler) {
	n.global = append(n.global, h)
}

// emit is the one place an event is counted, and traced.
func (n *Network) emit(ev event, m Message) {
	n.counts.events[ev]++
	if ev == evSend {
		n.counts.bytes = addKind(n.counts.bytes, m.Kind, int64(m.Size))
	}
	if n.trace != nil {
		n.trace(TraceEvent{Time: n.K.Now(), From: m.From, To: m.To, Kind: m.Kind, Size: m.Size, Event: eventNames[ev]})
	}
	if n.otr != nil {
		n.otr.Emit(obs.Event{
			T: int64(n.K.Now()), Node: int(m.From), Peer: int(m.To),
			Layer: "simnet", Event: eventNames[ev], ID: m.ID, Kind: m.Kind, Bytes: m.Size,
		})
	}
	if om := n.om; om != nil {
		switch {
		case ev == evSend:
			om.links.at(linkKey(m.From, m.To)).bytes += int64(m.Size)
		case ev.isDrop():
			key := linkKey(m.From, m.To)
			om.links.at(key) // a link that only ever dropped is still dumped
			om.drops[key]++
		}
	}
}

// Crash takes a node down as a first-class event: it stops sending and
// receiving, its partition membership is shed (a machine that is off
// belongs to no partition group).  Idempotent.
func (n *Network) Crash(id NodeID) {
	if n.down[id] {
		return
	}
	n.down[id] = true
	n.partition[id] = 0
	n.emit(evCrash, Message{From: id, To: id})
}

// Recover brings a crashed node back up.  It rejoins partition group 0
// (the default); handlers installed before the crash remain in place.
// Idempotent.
func (n *Network) Recover(id NodeID) {
	if !n.down[id] {
		return
	}
	n.down[id] = false
	n.emit(evRecover, Message{From: id, To: id})
}

// CrashAt schedules a crash at absolute virtual time t.
func (n *Network) CrashAt(t time.Duration, id NodeID) {
	n.K.At(t, func() { n.Crash(id) })
}

// RecoverAt schedules a recovery at absolute virtual time t.
func (n *Network) RecoverAt(t time.Duration, id NodeID) {
	n.K.At(t, func() { n.Recover(id) })
}

// Latency returns the modeled one-way latency between two nodes.
func (n *Network) Latency(a, b NodeID) time.Duration {
	d := math.Hypot(n.xs[a]-n.xs[b], n.ys[a]-n.ys[b])
	return n.cfg.BaseLatency + time.Duration(d*float64(n.cfg.LatencyPerUnit))
}

// Distance returns the plane distance between two nodes.
func (n *Network) Distance(a, b NodeID) float64 {
	return math.Hypot(n.xs[a]-n.xs[b], n.ys[a]-n.ys[b])
}

// SetPartition places a node into a partition group.  Messages between
// different groups are dropped until ClearPartitions.  Down nodes take
// no partition state (they are not on the network at all); crash sheds
// membership and recovery rejoins group 0.
func (n *Network) SetPartition(id NodeID, group int) {
	if n.down[id] {
		return
	}
	n.partition[id] = int32(group)
}

// ClearPartitions heals all partitions.
func (n *Network) ClearPartitions() {
	clear(n.partition)
}

// NoteRetry records one protocol-level retransmission under the given
// message kind.  Retry layers (routing failover, fragment re-request,
// agreement retransmit) call it so experiments can see how hard the
// protocols worked to mask faults.
// An attached registry gains a retries_<kind> series at a kind's first
// retry while attached.
func (n *Network) NoteRetry(kind string) {
	n.counts.retries = addKind(n.counts.retries, kind, 1)
	if m := n.om; m != nil && !slices.Contains(m.kinds, kind) {
		m.kinds = append(m.kinds, kind)
		m.reg.CounterSource("simnet", "retries_"+kind, obs.Value(func() int64 {
			return kindValue(m.cur.retries, kind) - kindValue(m.base.retries, kind)
		}))
	}
}

// Send routes one message.  It accounts for the bytes regardless of
// whether delivery succeeds (the sender still paid to transmit), then
// schedules delivery after the modeled latency unless the message is
// dropped by a crash, partition, fault plan, or random loss.
func (n *Network) Send(from, to NodeID, kind string, payload any, size int) {
	n.SendHeld(from, to, kind, payload, size, 0)
}

// SendHeld is Send for a message its receiver takes up no earlier than
// virtual time hold: a request that waits its turn in the receiver's
// queue reaches the handler when the turn comes, and the receiver must
// be up then.
func (n *Network) SendHeld(from, to NodeID, kind string, payload any, size int, hold time.Duration) {
	if from < 0 || int(from) >= len(n.addrs) || to < 0 || int(to) >= len(n.addrs) {
		panic(fmt.Sprintf("simnet: send %d->%d out of range", from, to))
	}
	n.nextMsgID++
	msg := Message{From: from, To: to, Kind: kind, Payload: payload, Size: size, ID: n.nextMsgID}
	if n.down[from] {
		// A crashed node sends nothing and pays nothing, but the loss is
		// visible in the crash-drop counter.
		n.emit(evDropCrash, msg)
		return
	}
	n.emit(evSend, msg)

	if n.partition[from] != n.partition[to] {
		n.emit(evDropPartition, msg)
		return
	}
	var extra time.Duration
	if n.plan != nil {
		drop, delay := n.plan.FilterSend(msg, n.K.Now())
		if drop {
			n.emit(evDropFault, msg)
			return
		}
		extra = delay
	}
	if n.cfg.DropProb > 0 && n.K.Rand().Float64() < n.cfg.DropProb {
		n.emit(evDropLoss, msg)
		return
	}
	n.enqueue(msg, max(n.K.Now()+n.Latency(from, to)+extra, hold))
}

// msgBatch collects the messages due at one virtual tick.  Each batch
// carries its own flush closure, built once per batch object: reused
// batches re-arm by mutating due, so a steady-state tick posts zero
// closures.
type msgBatch struct {
	msgs  []Message
	due   time.Duration
	flush func()
}

// enqueue appends the message to the batch for its delivery tick,
// creating the batch — and its single kernel event — on first use.
// The ordering contract: messages due at one tick are delivered in
// send order, at the kernel position of the tick's FIRST send.  Among
// deliveries alone that is exactly the (time, seq) order one kernel
// event per message would give (pinned by TestDeliveryOrderPinned); a
// timer due on the same tick and scheduled after the batch opened runs
// after every message of the batch, including ones sent after the
// timer was armed.
func (n *Network) enqueue(m Message, due time.Duration) {
	b, ok := n.batches[due]
	if !ok {
		b = n.getBatch()
		b.due = due
		n.batches[due] = b
		n.K.At(due, b.flush)
	}
	b.msgs = append(b.msgs, m)
}

// flushBatch delivers every message due at this tick.  The batch is
// unhooked before delivery: a handler that sends a zero-latency
// message back onto the same tick opens a fresh batch whose event
// runs later in the tick, after everything already queued for it.
func (n *Network) flushBatch(b *msgBatch) {
	delete(n.batches, b.due)
	for i := range b.msgs {
		n.deliver(b.msgs[i])
	}
	n.putBatch(b)
}

// getBatch/putBatch recycle batch buffers: a drained batch clears its
// payload references (so the GC can collect delivered messages) and
// parks on the free list for the next tick.
func (n *Network) getBatch() *msgBatch {
	if len(n.batchFree) > 0 {
		b := n.batchFree[len(n.batchFree)-1]
		n.batchFree = n.batchFree[:len(n.batchFree)-1]
		return b
	}
	b := &msgBatch{}
	b.flush = func() { n.flushBatch(b) }
	return b
}

func (n *Network) putBatch(b *msgBatch) {
	for i := range b.msgs {
		b.msgs[i] = Message{}
	}
	b.msgs = b.msgs[:0]
	n.batchFree = append(n.batchFree, b)
}

// deliver hands a message to the handlers right now — the network-wide
// ones, then the destination's keyed ones — applying the crash check
// every delivery must respect: a down node receives nothing.  Returns
// whether the handlers ran.
func (n *Network) deliver(m Message) bool {
	if n.down[m.To] {
		n.emit(evDropCrash, m)
		return false
	}
	dm := n.demux[m.To]
	if len(n.global) == 0 && dm == nil {
		n.emit(evDropNoHandler, m)
		return false
	}
	n.emit(evDeliver, m)
	for _, g := range n.global {
		g(m.To, m)
	}
	if len(dm) > 0 {
		if d, ok := m.Payload.(Demuxed); ok {
			key := d.Demux()
			w := key.word()
			n.dispatching = true
			for i := demuxFrom(dm, w); i < len(dm) && dm[i].key.word() == w; i++ {
				if dm[i].key == key && slices.Contains(dm[i].kinds, m.Kind) {
					dm[i].h(m)
				}
			}
			n.dispatching = false
		}
	}
	return true
}

// Stats returns a snapshot of the traffic counters.  The ByKind and
// RetriesByKind maps in the returned value are reused by the next
// Stats call — copy them if they must outlive it.  Steady-state
// snapshots allocate nothing.
func (n *Network) Stats() Stats {
	s := Stats{Retries: int(total(n.counts.retries)), BytesSent: total(n.counts.bytes)}
	for ev, f := range [numEvents]*int{&s.MessagesSent, &s.MessagesDelivered, &s.DroppedByCrash,
		&s.DroppedByPartition, &s.DroppedByFault, &s.DroppedByLoss, &s.DroppedNoHandler, &s.Crashes, &s.Recoveries} {
		*f = int(n.counts.events[ev])
		if event(ev).isDrop() {
			s.MessagesDropped += *f
		}
	}
	if n.snapByKind == nil {
		n.snapByKind = make(map[string]int64, len(n.counts.bytes))
		n.snapRetries = make(map[string]int, len(n.counts.retries))
	}
	clear(n.snapByKind)
	for _, kc := range n.counts.bytes {
		n.snapByKind[kc.kind] = kc.n
	}
	clear(n.snapRetries)
	for _, kc := range n.counts.retries {
		n.snapRetries[kc.kind] = int(kc.n)
	}
	s.ByKind = n.snapByKind
	s.RetriesByKind = n.snapRetries
	return s
}

// KindBytes returns the bytes sent so far under one message kind
// without copying the whole Stats maps — cheap enough for per-tick
// rate-cap watchdogs (the audit layer polices its own traffic with it).
func (n *Network) KindBytes(kind string) int64 {
	return kindValue(n.counts.bytes, kind)
}

// ResetStats zeroes the traffic counters, so an experiment can measure
// one protocol run in isolation.
func (n *Network) ResetStats() {
	if m := n.om; m != nil {
		m.base.add(&n.counts, -1)
	}
	n.counts = counts{bytes: n.counts.bytes[:0], retries: n.counts.retries[:0]}
}
