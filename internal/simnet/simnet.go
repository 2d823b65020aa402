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
// (DropProb, bandwidth); a pluggable FaultPlan (package fault) adds a
// deterministic schedule of per-link drop/delay rules on top.  Crash
// and recovery are first-class kernel events — Crash/Recover and their
// scheduled variants — so that a down node sheds its partition state,
// drops due to crashes are accounted separately from other losses, and
// every liveness transition is observable by the protocol layers.
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
package simnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"time"

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
// correlate a send with its delivery or drop; messages handed straight
// to Deliver keep ID 0.
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
// instance.  Deliver uses it to dispatch straight to the handlers
// registered for (kind, key) instead of running the node's whole
// handler chain: a node serving thousands of object rings then pays
// one map probe per delivery, not thousands of type-assert-and-ignore
// handler calls.
type Demuxed interface{ Demux() DemuxKey }

// demuxSlot is one (kind, key) registration in a node's demux table.
// The table is keyed by the key's first word — every layer puts its
// instance ID's entropy there — so a delivery hashes eight bytes, not a
// string and twenty, and then compares (kind, key) against the few
// slots that share the word: one instance's wire kinds.
type demuxSlot struct {
	kind string
	key  DemuxKey
	hs   []Handler
}

func (k DemuxKey) word() uint64 { return binary.LittleEndian.Uint64(k[:8]) }

// GlobalHandler consumes messages delivered to any node.  Services
// that attend every server (the archival store) register one of these
// instead of closing a per-node handler over each of a million IDs.
type GlobalHandler func(to NodeID, m Message)

// Node is a 16-byte value handle onto one simulated machine's state,
// which lives in the Network's struct-of-arrays storage.
type Node struct {
	ID  NodeID
	net *Network
}

// Addr returns the node's server GUID (hash-sized random identity).
func (n Node) Addr() guid.GUID { return n.net.addrs[n.ID] }

// X returns the node's position on the latency plane.
func (n Node) X() float64 { return n.net.xs[n.ID] }

// Y returns the node's position on the latency plane.
func (n Node) Y() float64 { return n.net.ys[n.ID] }

// Domain is the administrative domain the node belongs to; the
// archival layer avoids placing correlated fragments in one domain.
func (n Node) Domain() int { return int(n.net.domains[n.ID]) }

// Down reports whether the node is crashed: it neither sends nor
// receives.
func (n Node) Down() bool { return n.net.down[n.ID] }

// LowBandwidth reports a leaf node where dissemination trees transform
// updates into invalidations (paper §4.4.3).
func (n Node) LowBandwidth() bool { return n.net.lowbw[n.ID] }

// SetDown flips the liveness flag silently — no partition shedding, no
// liveness callbacks.  Tests use it to model a machine vanishing
// mid-protocol; prefer Network.Crash/Recover for observable churn.
func (n Node) SetDown(v bool) { n.net.down[n.ID] = v }

// SetLowBandwidth marks or unmarks the node as a low-bandwidth leaf.
func (n Node) SetLowBandwidth(v bool) { n.net.lowbw[n.ID] = v }

// SetDomain reassigns the node's administrative domain.
func (n Node) SetDomain(d int) { n.net.domains[n.ID] = int32(d) }

// Handle adds a message handler to the node.  Several protocol layers
// (agreement, dissemination, archival) coexist on one server, so every
// handler sees every delivered message and filters by Kind or payload
// type.
func (n Node) Handle(h Handler) {
	n.net.handlers[n.ID] = append(n.net.handlers[n.ID], h)
}

// HandleDemux registers h for messages of the given kind whose payload
// implements Demuxed with this key.  Unlike Handle, dispatch is an
// O(1) table probe; handlers for other instances on the same node are
// never invoked.  Demux handlers run before the node's Handle chain.
func (n Node) HandleDemux(kind string, key DemuxKey, h Handler) {
	dm := n.net.demux[n.ID]
	if dm == nil {
		dm = make(map[uint64][]demuxSlot)
		n.net.demux[n.ID] = dm
	}
	slots := dm[key.word()]
	for i := range slots {
		if slots[i].kind == kind && slots[i].key == key {
			slots[i].hs = append(slots[i].hs, h)
			return
		}
	}
	// Grown to the exact size: a node serving thousands of instances
	// keeps a list per instance, and append's doubling would leave most
	// of them half empty.
	grown := make([]demuxSlot, len(slots)+1)
	copy(grown, slots)
	grown[len(slots)] = demuxSlot{kind: kind, key: key, hs: []Handler{h}}
	dm[key.word()] = grown
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
	// Bandwidth, if non-zero, adds Size/Bandwidth serialization delay
	// (bytes per second).
	Bandwidth float64
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
	DroppedNoHandler   int // delivered to a node with no handlers
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
	addrs    []guid.GUID
	xs, ys   []float64
	domains  []int32
	down     []bool
	lowbw    []bool
	handlers [][]Handler
	// demux holds per-node (kind, instance-key) handler tables for the
	// O(1) dispatch path (HandleDemux); nil for nodes that only use the
	// plain handler chain.
	demux []map[uint64][]demuxSlot

	// global handlers fire for every delivered message, before the
	// per-node handlers.
	global []GlobalHandler

	// byAddr interns GUID → NodeID lookups; built lazily on the first
	// NodeByAddr call and maintained incrementally afterwards, so
	// worlds that never resolve addresses pay nothing.
	byAddr map[guid.GUID]NodeID

	stats Stats
	// kindBytes accumulates Stats.ByKind: a run has a couple of dozen
	// wire kinds, all string constants, so Send scans this slice (a
	// length compare, then a pointer compare) instead of hashing the
	// kind per message; stats.ByKind itself stays nil and Stats()
	// materialises the map.
	kindBytes []kindCount
	// snapByKind/snapRetries are the reusable map payloads handed out
	// by Stats() — the snapshot path allocates nothing in steady state.
	snapByKind  map[string]int64
	snapRetries map[string]int

	// partition[i] groups nodes; messages between different groups drop.
	// Group 0 is the default (no partition).
	partition []int32
	plan      FaultPlan
	trace     func(TraceEvent)
	liveness  []func(id NodeID, up bool)
	topology  []func(added []Node)

	// In-flight messages: those due at the same tick share one queued
	// batch and one kernel event.  Drained batches park on a free list
	// so steady-state delivery allocates nothing per tick.
	batches   map[time.Duration]*msgBatch
	batchFree []*msgBatch

	// Observability (Instrument): om holds pre-resolved metric handles,
	// otr the opt-in trace ring.  Both nil in uninstrumented runs, so
	// the send path pays two nil checks.
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
// eventCounters the node-wide registry counter each event bumps.
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

// netMetrics caches the network's obs handles so the per-message path
// never does a map lookup for the aggregate counters.  Per-link
// counters are created lazily on first traffic over the link.
type netMetrics struct {
	reg            *obs.Registry
	events         [numEvents]*obs.Counter
	bytes, retries *obs.Counter
	links          linkTable
	kindRetries    map[string]*obs.Counter
	// linkFams holds, per destination, the two families its links'
	// counters live in ("link_n7_bytes", "link_n7_drops"): the names
	// depend only on the destination, so they are formatted and interned
	// once, and a new link into it costs two appends to those families.
	linkFams []linkFamilies
}

type linkFamilies struct{ bytes, drops *obs.CounterFamily }

type linkMetrics struct {
	bytes, drops *obs.Counter
}

// linkTable finds a link's counters from the packed (from, to) pair: one
// open-addressed array with the handles inline, probed once per send.
// One table for the world rather than one per sender — no spine of 100k
// headers — and a hit costs a multiply, one cache line of slots and the
// counter itself, where a generic map walks a directory, a control
// word and a slot to reach a pointer to the pair.
type linkTable struct {
	slots []linkSlot // length a power of two; a slot is free while bytes == nil
	used  int
	shift uint // 64 - log2(len(slots))
}

type linkSlot struct {
	key uint64
	linkMetrics
}

func linkKey(from, to NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// slot returns the slot holding key, or the free slot where it belongs.
func (t *linkTable) slot(key uint64) *linkSlot {
	mask := uint64(len(t.slots) - 1)
	for i := key * 0x9E3779B97F4A7C15 >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.bytes == nil || s.key == key {
			return s
		}
	}
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
		if s.bytes != nil {
			*t.slot(s.key) = s
		}
	}
}

// link resolves (lazily creating) the per-link counters for from→to.
// Names encode the destination, so Key.Node carries the source: the
// pair answers "bytes/drops per link" (§5's per-flow observation).
func (n *Network) link(from, to NodeID) linkMetrics {
	m := n.om
	key := linkKey(from, to)
	s := m.links.slot(key)
	if s.bytes == nil {
		if int(to) >= len(m.linkFams) {
			m.linkFams = append(m.linkFams, make([]linkFamilies, len(n.addrs)-len(m.linkFams))...)
		}
		fams := &m.linkFams[to]
		if fams.bytes == nil {
			name := strconv.AppendInt([]byte("link_n"), int64(to), 10)
			fams.bytes = m.reg.CounterFamily("simnet", string(append(name, "_bytes"...)))
			fams.drops = m.reg.CounterFamily("simnet", string(append(name, "_drops"...)))
		}
		lm := linkMetrics{bytes: fams.bytes.At(int(from)), drops: fams.drops.At(int(from))}
		m.links.reserve()
		s = m.links.slot(key)
		*s = linkSlot{key, lm}
		m.links.used++
	}
	return s.linkMetrics
}

// Instrument attaches an obs registry and/or tracer to the network.
// Pass nil for either to disable that half; call again to re-point.
// Instrumentation never alters behaviour — no RNG draws, no events —
// so instrumented and bare runs take identical trajectories.
func (n *Network) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	n.otr = tr
	if reg == nil {
		n.om = nil
		return
	}
	n.om = &netMetrics{
		reg:         reg,
		bytes:       reg.Counter(obs.NodeWide, "simnet", "bytes_sent"),
		retries:     reg.Counter(obs.NodeWide, "simnet", "retries"),
		kindRetries: make(map[string]*obs.Counter),
	}
	for ev, name := range eventCounters {
		n.om.events[ev] = reg.Counter(obs.NodeWide, "simnet", name)
	}
	n.om.links.reserve()
}

// New creates an empty network over kernel k.
func New(k *sim.Kernel, cfg Config) *Network {
	return &Network{
		K:       k,
		cfg:     cfg,
		stats:   newStats(),
		batches: make(map[time.Duration]*msgBatch),
	}
}

func newStats() Stats {
	return Stats{RetriesByKind: make(map[string]int)}
}

type kindCount struct {
	kind  string
	bytes int64
}

func (n *Network) addKindBytes(kind string, size int64) {
	for i := range n.kindBytes {
		if n.kindBytes[i].kind == kind {
			n.kindBytes[i].bytes += size
			return
		}
	}
	n.kindBytes = append(n.kindBytes, kindCount{kind, size})
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
	n.handlers = append(n.handlers, nil)
	n.demux = append(n.demux, nil)
	n.partition = append(n.partition, 0)
	if n.byAddr != nil {
		n.byAddr[addr] = id
	}
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

// NodeByAddr resolves a server GUID to its node, interning the
// GUID → NodeID table on first use so address resolution is one map
// probe instead of a linear scan.
func (n *Network) NodeByAddr(addr guid.GUID) (NodeID, bool) {
	if n.byAddr == nil {
		n.byAddr = make(map[guid.GUID]NodeID, len(n.addrs))
		for i, a := range n.addrs {
			n.byAddr[a] = NodeID(i)
		}
	}
	id, ok := n.byAddr[addr]
	return id, ok
}

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.addrs) }

// Nodes returns handles on every node.
func (n *Network) Nodes() []Node {
	out := make([]Node, len(n.addrs))
	for i := range out {
		out[i] = Node{ID: NodeID(i), net: n}
	}
	return out
}

// SetFaultPlan installs (or, with nil, removes) the fault-schedule
// hook.  At most one plan is active at a time.
func (n *Network) SetFaultPlan(p FaultPlan) { n.plan = p }

// SetTrace installs (or, with nil, removes) the event trace callback.
func (n *Network) SetTrace(fn func(TraceEvent)) { n.trace = fn }

// SetDropProb changes the ambient per-message loss probability.
func (n *Network) SetDropProb(p float64) { n.cfg.DropProb = p }

// OnLiveness registers a callback fired on every Crash/Recover
// transition, so protocol layers can react to churn (mesh liveness
// sync, tree re-homing) without polling.
func (n *Network) OnLiveness(fn func(id NodeID, up bool)) {
	n.liveness = append(n.liveness, fn)
}

// HandleAll registers a handler that sees every delivered message,
// whatever its destination, before the destination's own handlers.
// Network-wide services use it to attend a million nodes without a
// million closures.
func (n *Network) HandleAll(h GlobalHandler) {
	n.global = append(n.global, h)
}

func (n *Network) emit(ev event, m Message) {
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
		om.events[ev].Inc()
		switch {
		case ev == evSend:
			om.bytes.Add(int64(m.Size))
			n.link(m.From, m.To).bytes.Add(int64(m.Size))
		case ev.isDrop():
			n.link(m.From, m.To).drops.Inc()
		}
	}
}

// Crash takes a node down as a first-class event: it stops sending and
// receiving, its partition membership is shed (a machine that is off
// belongs to no partition group), and liveness callbacks fire.
// Idempotent.
func (n *Network) Crash(id NodeID) {
	if n.down[id] {
		return
	}
	n.down[id] = true
	n.partition[id] = 0
	n.stats.Crashes++
	n.emit(evCrash, Message{From: id, To: id})
	for _, fn := range n.liveness {
		fn(id, false)
	}
}

// Recover brings a crashed node back up.  It rejoins partition group 0
// (the default); handlers installed before the crash remain in place.
// Idempotent.
func (n *Network) Recover(id NodeID) {
	if !n.down[id] {
		return
	}
	n.down[id] = false
	n.stats.Recoveries++
	n.emit(evRecover, Message{From: id, To: id})
	for _, fn := range n.liveness {
		fn(id, true)
	}
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
func (n *Network) NoteRetry(kind string) {
	n.stats.Retries++
	n.stats.RetriesByKind[kind]++
	if om := n.om; om != nil {
		om.retries.Inc()
		c, ok := om.kindRetries[kind]
		if !ok {
			c = om.reg.Counter(obs.NodeWide, "simnet", "retries_"+kind)
			om.kindRetries[kind] = c
		}
		c.Inc()
	}
}

// Send routes one message.  It accounts for the bytes regardless of
// whether delivery succeeds (the sender still paid to transmit), then
// schedules delivery after the modeled latency unless the message is
// dropped by a crash, partition, fault plan, or random loss.
func (n *Network) Send(from, to NodeID, kind string, payload any, size int) {
	if from < 0 || int(from) >= len(n.addrs) || to < 0 || int(to) >= len(n.addrs) {
		panic(fmt.Sprintf("simnet: send %d->%d out of range", from, to))
	}
	n.nextMsgID++
	msg := Message{From: from, To: to, Kind: kind, Payload: payload, Size: size, ID: n.nextMsgID}
	if n.down[from] {
		// A crashed node sends nothing and pays nothing, but the loss is
		// visible in the crash-drop counter.
		n.stats.MessagesDropped++
		n.stats.DroppedByCrash++
		n.emit(evDropCrash, msg)
		return
	}
	n.stats.MessagesSent++
	n.stats.BytesSent += int64(size)
	n.addKindBytes(kind, int64(size))
	n.emit(evSend, msg)

	if n.partition[from] != n.partition[to] {
		n.stats.MessagesDropped++
		n.stats.DroppedByPartition++
		n.emit(evDropPartition, msg)
		return
	}
	var extra time.Duration
	if n.plan != nil {
		drop, delay := n.plan.FilterSend(msg, n.K.Now())
		if drop {
			n.stats.MessagesDropped++
			n.stats.DroppedByFault++
			n.emit(evDropFault, msg)
			return
		}
		extra = delay
	}
	if n.cfg.DropProb > 0 && n.K.Rand().Float64() < n.cfg.DropProb {
		n.stats.MessagesDropped++
		n.stats.DroppedByLoss++
		n.emit(evDropLoss, msg)
		return
	}
	lat := n.Latency(from, to) + extra
	if n.cfg.Bandwidth > 0 {
		lat += time.Duration(float64(size) / n.cfg.Bandwidth * float64(time.Second))
	}
	n.enqueue(msg, n.K.Now()+lat)
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
		n.Deliver(b.msgs[i])
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

// Deliver hands a message to the destination's handlers right now,
// applying the crash check every delivery path must respect: a down
// node receives nothing, even via direct delivery.  Returns whether the
// handlers ran.  Send uses it internally; protocol layers that shortcut
// the wire (local applies, test harnesses) should go through it rather
// than invoking handlers themselves.
func (n *Network) Deliver(m Message) bool {
	if n.down[m.To] {
		n.stats.MessagesDropped++
		n.stats.DroppedByCrash++
		n.emit(evDropCrash, m)
		return false
	}
	hs := n.handlers[m.To]
	dm := n.demux[m.To]
	if len(hs) == 0 && len(n.global) == 0 && len(dm) == 0 {
		n.stats.MessagesDropped++
		n.stats.DroppedNoHandler++
		n.emit(evDropNoHandler, m)
		return false
	}
	n.stats.MessagesDelivered++
	n.emit(evDeliver, m)
	for _, g := range n.global {
		g(m.To, m)
	}
	if len(dm) > 0 {
		if d, ok := m.Payload.(Demuxed); ok {
			key := d.Demux()
			slots := dm[key.word()]
			for i := range slots {
				if slots[i].kind == m.Kind && slots[i].key == key {
					for _, h := range slots[i].hs {
						h(m)
					}
					break
				}
			}
		}
	}
	for _, h := range hs {
		h(m)
	}
	return true
}

// Stats returns a snapshot of the traffic counters.  The ByKind and
// RetriesByKind maps in the returned value are reused by the next
// Stats call — copy them if they must outlive it.  Steady-state
// snapshots allocate nothing.
func (n *Network) Stats() Stats {
	s := n.stats
	if n.snapByKind == nil {
		n.snapByKind = make(map[string]int64, len(n.kindBytes))
		n.snapRetries = make(map[string]int, len(n.stats.RetriesByKind))
	}
	clear(n.snapByKind)
	for _, kc := range n.kindBytes {
		n.snapByKind[kc.kind] = kc.bytes
	}
	clear(n.snapRetries)
	for k, v := range n.stats.RetriesByKind {
		n.snapRetries[k] = v
	}
	s.ByKind = n.snapByKind
	s.RetriesByKind = n.snapRetries
	return s
}

// KindBytes returns the bytes sent so far under one message kind
// without copying the whole Stats maps — cheap enough for per-tick
// rate-cap watchdogs (the audit layer polices its own traffic with it).
func (n *Network) KindBytes(kind string) int64 {
	for _, kc := range n.kindBytes {
		if kc.kind == kind {
			return kc.bytes
		}
	}
	return 0
}

// ResetStats zeroes the traffic counters, so an experiment can measure
// one protocol run in isolation.
func (n *Network) ResetStats() {
	n.stats = newStats()
	n.kindBytes = n.kindBytes[:0]
}
