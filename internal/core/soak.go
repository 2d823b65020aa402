package core

import (
	"fmt"
	"path/filepath"
	"time"

	"oceanstore/internal/acl"
	"oceanstore/internal/archive"
	"oceanstore/internal/blobstore"
	"oceanstore/internal/crypt"
	"oceanstore/internal/epidemic"
	"oceanstore/internal/guid"
	"oceanstore/internal/introspect"
	"oceanstore/internal/object"
	"oceanstore/internal/obs"
	"oceanstore/internal/replica"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
	"oceanstore/internal/workload"
)

// SoakConfig sizes a soak world: a meshless, batch-delivery pool large
// enough for 10k nodes, with a client population the traffic engine
// (workload.Engine) drives in a closed or open loop.
type SoakConfig struct {
	// Nodes is the server count.
	Nodes int
	// Objects is how many objects exist before traffic starts; creates
	// grow the set during the run.
	Objects int
	// Secondaries is the floating-replica count per object.
	Secondaries int
	// Clients is the virtual-client population.
	Clients int
	// Faults is f per primary tier (3f+1 members).
	Faults int
	// BlockSize is the object block granularity; soak writes replace
	// block 0, so object state stays bounded over a million updates.
	BlockSize int
	// MaxInFlight is the backpressure threshold: accepted-but-
	// unresolved writes beyond it shed new requests (ErrOverloaded).
	MaxInFlight int
	// ArchiveEvery archives a ring every N commits (soak loosens the
	// paper's every-commit coupling so archival cost stays sublinear).
	ArchiveEvery int
	// GossipInterval is the secondary anti-entropy period.
	GossipInterval time.Duration
	// Guarantees are the session guarantees every client runs under.
	Guarantees Guarantees
	// Backend selects the fragment-store implementation: "" or "mem"
	// for the in-memory NodeStore, "disk" for one blobstore volume per
	// storage node under StoreDir.  The backends share one behavioural
	// contract (archive.Store), so swapping them must not change the
	// run's trajectory — only its real I/O.
	Backend string
	// StoreDir is the volume directory for the disk backend.
	StoreDir string
	// ScrubInterval arms the archival maintenance scheduler: budgeted
	// scrub (re-read + verify) plus rate-limited background repair on
	// this tick period.  0 leaves maintenance off.
	ScrubInterval time.Duration
	// FlushInterval moves store fsync from per-batch to a scheduler
	// group commit on this period (needs ScrubInterval > 0).
	FlushInterval time.Duration
	// ReadService arms the modeled read path when positive: each read
	// picks its server queue-aware (among qualifying floating replicas
	// plus the primary anchor), occupies that node for ReadService in a
	// per-node FIFO, and completes one round trip later through the
	// kernel — so read latency is a real queueing quantity that degrades
	// when few replicas absorb a flash crowd.  0 keeps the legacy
	// synchronous (zero-latency) read.
	ReadService time.Duration
	// Introspect arms the introspective replica controller (§4.7.2): it
	// watches per-object read/write traffic and promotes/demotes
	// floating replicas under hysteresis, budgets, and rate limits.
	Introspect bool
	// IntrospectEpoch is the controller's observation epoch (default
	// 10s).
	IntrospectEpoch time.Duration
	// NodeBudget caps how many floating replicas introspective
	// promotion may place on one node (default 8).  Static placement
	// (Secondaries) is the operator's choice and is not bounded by it.
	NodeBudget int
	// IntrospectCfg tunes the controller; zero fields take defaults.
	IntrospectCfg introspect.ControllerConfig
	// Link model.
	Extent         float64
	Domains        int
	BaseLatency    time.Duration
	LatencyPerUnit time.Duration
}

const (
	// soakWriteTimeout bounds how long a write may stay unresolved in
	// virtual time before the session gives up (abort) — without it, a
	// write stalled behind churn retransmits forever and a closed loop
	// never finishes.
	soakWriteTimeout = 2 * time.Minute
	// soakRetainVersions caps each object's retained version history
	// (object.KeepLast); deep-archival copies persist regardless.
	soakRetainVersions = 8
	// soakRetirePeriod is the period of the history-retirement sweep.
	soakRetirePeriod = 5 * time.Minute
)

// DefaultSoakConfig scales a soak world to the given node count:
// objects ~ nodes/16, clients ~ nodes/32 (clamped), one fault per
// tier, WAN-ish latency.
func DefaultSoakConfig(nodes int) SoakConfig {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	return SoakConfig{
		Nodes:           nodes,
		Objects:         clamp(nodes/16, 4, 4096),
		Secondaries:     4,
		Clients:         clamp(nodes/32, 4, 1024),
		Faults:          1,
		BlockSize:       512,
		MaxInFlight:     clamp(nodes/32, 8, 1024),
		ArchiveEvery:    256,
		GossipInterval:  30 * time.Second,
		Guarantees:      ReadYourWrites,
		IntrospectEpoch: 10 * time.Second,
		NodeBudget:      8,
		Extent:          100,
		Domains:         8,
		BaseLatency:     15 * time.Millisecond,
		LatencyPerUnit:  time.Millisecond,
	}
}

// SoakWorld is a pool wired up as a workload.Target: reads are served
// through sessions, writes resolve through the full Fig-5 update path
// (agreement, dissemination, archival), creates provision fresh
// objects with secondaries, and backpressure sheds load once too many
// writes are unresolved.
type SoakWorld struct {
	Pool *Pool
	cfg  SoakConfig

	owner    *Client
	sessions []*Session
	objects  []guid.GUID
	// writers grants every soak client write privilege; bound to each
	// object at creation (the default cert is owner-only).
	writers *acl.ACL

	// await maps an in-flight write to its engine completion callback.
	await    map[update.UpdateID]func(ok bool)
	inflight int

	// Rotation cursors: replica placement and growth attachment.
	nextSecondary int
	growIdx       int
	created       int

	// Modeled read path (ReadService > 0): per-node service-queue
	// tails, grown on demand as the world grows.
	busy []time.Duration
	// hosted counts floating replicas per node — the budget the
	// introspective promoter must respect.
	hosted []int
	// ctrl is the introspective replica controller (nil when off).
	ctrl *introspect.Controller
	// readWire accounts bytes-on-wire for modeled reads (request +
	// response), collected even without a registry.
	readWire  int64
	cReadWire *obs.Counter

	// sched is the archival maintenance scheduler (nil when off).
	sched     *archive.Scheduler
	schedStop func()
}

// NewSoakWorld builds the world: a meshless pool (O(n) construction),
// pre-created objects with floating replicas, and one session per
// virtual client.  All clients share the owner's key ring, so any
// client can read and write any object.
func NewSoakWorld(seed int64, cfg SoakConfig) (*SoakWorld, error) {
	// Retention bounds (DESIGN.md §12): a tentative update either
	// resolves within the session write timeout or was abandoned; one
	// timeout plus two gossip periods covers any copy still in flight,
	// so expiry only ever drops dead weight.  Committed state beyond a
	// small window survives as applied state; laggards catch up by
	// checkpoint transfer.  Without these bounds a million-op run keeps
	// every update alive forever and replays dead tentative entries on
	// every read — the O(ops²) wall the soak hit.
	tentativeExpire := soakWriteTimeout + 2*cfg.GossipInterval
	pc := PoolConfig{
		Nodes:     cfg.Nodes,
		Domains:   cfg.Domains,
		Faults:    cfg.Faults,
		BlockSize: cfg.BlockSize,
		Ring: replica.Config{
			Faults:         cfg.Faults,
			ArchiveEvery:   cfg.ArchiveEvery,
			Archive:        archive.Config{DataShards: 4, TotalFragments: 8},
			GossipInterval: cfg.GossipInterval,
			TreeFanout:     4,
			Retention: epidemic.Retention{
				TentativeExpire: tentativeExpire,
				CommitWindow:    128,
			},
			LogCap:       256,
			HistoryBound: soakRetainVersions,
			DropExecuted: true,
		},
		Extent:         cfg.Extent,
		BaseLatency:    cfg.BaseLatency,
		LatencyPerUnit: cfg.LatencyPerUnit,
		NoMesh:         true,
	}
	switch cfg.Backend {
	case "", "mem":
	case "disk":
		if cfg.StoreDir == "" {
			return nil, fmt.Errorf("core: disk backend needs a StoreDir")
		}
		dir := cfg.StoreDir
		pc.StoreFactory = func(id simnet.NodeID) archive.Store {
			s, err := blobstore.Open(blobstore.Config{
				Path: filepath.Join(dir, fmt.Sprintf("vol-%06d.log", id)),
			})
			if err != nil {
				// Stores materialize lazily deep inside the archive path;
				// a volume that cannot open is an environment failure, not
				// a simulated fault.
				panic(fmt.Sprintf("core: open blobstore volume for node %d: %v", id, err))
			}
			return s
		}
	default:
		return nil, fmt.Errorf("core: unknown store backend %q", cfg.Backend)
	}
	p := NewPool(seed, pc)
	if cfg.ScrubInterval > 0 && cfg.FlushInterval > 0 {
		// The operator asked for group commit, and construction honours
		// it: the objects created below leave their volumes dirty, and
		// the scheduler's first flush commits them all at once.
		p.Arch.SyncEachBatch = false
	}
	w := &SoakWorld{
		Pool:  p,
		cfg:   cfg,
		await: make(map[update.UpdateID]func(bool)),
	}
	w.owner = p.NewClient(0, crypt.NewSigner(p.K.Rand()))
	for i := 0; i < cfg.Clients; i++ {
		c := p.NewClient(simnet.NodeID(i%cfg.Nodes), crypt.NewSigner(p.K.Rand()))
		c.Keys = w.owner.Keys
		s := c.NewSession(cfg.Guarantees)
		s.UpdateTimeout = soakWriteTimeout
		s.OnCommit(func(_ guid.GUID, id update.UpdateID) { w.resolve(id, true) })
		s.OnAbort(func(_ guid.GUID, id update.UpdateID) { w.resolve(id, false) })
		w.sessions = append(w.sessions, s)
	}
	w.writers = &acl.ACL{}
	for _, s := range w.sessions {
		w.writers.Entries = append(w.writers.Entries,
			acl.Entry{PubKey: s.c.Signer.Public(), Priv: acl.PrivWrite})
	}
	for i := 0; i < cfg.Objects; i++ {
		if _, err := w.createObject(); err != nil {
			return nil, err
		}
	}
	// Nodes that join mid-run (GrowAt) become secondaries of existing
	// objects round-robin — promiscuous caching on arrival, O(added).
	p.Net.OnTopology(func(added []simnet.Node) {
		for _, nd := range added {
			if len(w.objects) == 0 {
				return
			}
			obj := w.objects[w.growIdx%len(w.objects)]
			w.growIdx++
			w.addSecondary(obj, nd.ID)
		}
	})
	p.K.Every(soakRetirePeriod, func() {
		policy := object.KeepLast{N: soakRetainVersions}
		for _, obj := range w.objects {
			if ring, ok := p.Ring(obj); ok {
				ring.Retire(policy)
			}
		}
	})
	if cfg.ScrubInterval > 0 {
		w.sched = archive.NewScheduler(p.Arch, archive.SchedulerConfig{
			ScrubInterval: cfg.ScrubInterval,
			// One fragment of slack above the reconstruction floor.
			Threshold:     pc.Ring.Archive.DataShards + 1,
			FlushInterval: cfg.FlushInterval,
		})
		w.schedStop = w.sched.Start()
	}
	if cfg.Introspect {
		w.ctrl = introspect.NewController(cfg.IntrospectCfg, soakHost{w})
		epoch := cfg.IntrospectEpoch
		if epoch <= 0 {
			epoch = 10 * time.Second
		}
		p.K.Every(epoch, w.ctrl.Tick)
	}
	return w, nil
}

// Controller exposes the introspective replica controller (nil when
// the world runs without one).
func (w *SoakWorld) Controller() *introspect.Controller { return w.ctrl }

// ReadWireBytes reports the bytes-on-wire the modeled read path has
// accounted (0 with ReadService off).
func (w *SoakWorld) ReadWireBytes() int64 { return w.readWire }

// Scheduler exposes the archival maintenance scheduler (nil when the
// world runs without one).
func (w *SoakWorld) Scheduler() *archive.Scheduler { return w.sched }

// Instrument attaches observability to the pool, the maintenance
// scheduler, and the introspection layer.
func (w *SoakWorld) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	w.Pool.Instrument(reg, tr)
	if w.sched != nil {
		w.sched.Instrument(reg)
	}
	w.cReadWire = reg.Counter(obs.NodeWide, "introspect", "read_wire_bytes")
	w.cReadWire.Add(w.readWire)
	if w.ctrl != nil {
		w.ctrl.Instrument(reg)
	}
}

// Close stops maintenance and syncs + closes every fragment store —
// mandatory for the disk backend, a no-op pile for the memory one.
func (w *SoakWorld) Close() error {
	if w.schedStop != nil {
		w.schedStop()
		w.schedStop = nil
	}
	return w.Pool.Arch.CloseStores()
}

// BlobStats aggregates real-I/O counters across disk-backed stores,
// and reports how many volumes exist.  Zero volumes on the memory
// backend.  Wall-clock I/O cost lives outside the simulation, so
// these numbers are for the stderr rail, not deterministic reports —
// though in fact they too are pure functions of the trajectory.
func (w *SoakWorld) BlobStats() (blobstore.Stats, int) {
	var agg blobstore.Stats
	vols := 0
	for _, id := range w.Pool.Arch.StoreNodes() {
		bs, ok := w.Pool.Arch.Store(id).(*blobstore.Store)
		if !ok {
			continue
		}
		vols++
		st := bs.Stats()
		agg.Puts += st.Puts
		agg.Gets += st.Gets
		agg.Drops += st.Drops
		agg.BytesWritten += st.BytesWritten
		agg.BytesRead += st.BytesRead
		agg.Syncs += st.Syncs
		agg.Flushes += st.Flushes
		agg.Compactions += st.Compactions
		agg.RecoveredFrags += st.RecoveredFrags
		agg.TruncatedBytes += st.TruncatedBytes
	}
	return agg, vols
}

// Objects returns the current object set (grown by creates).
func (w *SoakWorld) Objects() []guid.GUID {
	return append([]guid.GUID(nil), w.objects...)
}

// InFlight reports unresolved accepted writes (backpressure level).
func (w *SoakWorld) InFlight() int { return w.inflight }

// createObject provisions one object with its floating replicas.
func (w *SoakWorld) createObject() (guid.GUID, error) {
	name := fmt.Sprintf("soak-%d", w.created)
	w.created++
	obj, err := w.owner.Create(name, make([]byte, w.cfg.BlockSize))
	if err != nil {
		return guid.Zero, err
	}
	if err := w.Pool.SetACL(w.owner.Signer, obj, w.writers, 2); err != nil {
		return guid.Zero, err
	}
	for j := 0; j < w.cfg.Secondaries; j++ {
		w.addSecondary(obj, w.nextSecondaryNode())
	}
	w.objects = append(w.objects, obj)
	return obj, nil
}

// addSecondary attaches node as a floating replica of obj, skipping
// duplicates (the rotation can lap a small world).
func (w *SoakWorld) addSecondary(obj guid.GUID, node simnet.NodeID) {
	ring, ok := w.Pool.Ring(obj)
	if !ok {
		return
	}
	if _, dup := ring.Secondary(node); dup {
		return
	}
	// AddReplica only errors on unknown objects or duplicate
	// secondaries, both excluded above.
	if w.Pool.AddReplica(obj, node) == nil {
		w.hostedAdd(node, 1)
	}
}

// hostedAdd adjusts the per-node floating-replica census, growing the
// slice on demand (the world can grow mid-run).
func (w *SoakWorld) hostedAdd(node simnet.NodeID, d int) {
	for int(node) >= len(w.hosted) {
		w.hosted = append(w.hosted, 0)
	}
	w.hosted[node] += d
}

// HostedAt reports how many floating replicas node currently hosts.
func (w *SoakWorld) HostedAt(node simnet.NodeID) int {
	if int(node) >= len(w.hosted) {
		return 0
	}
	return w.hosted[node]
}

// nextSecondaryNode rotates replica placement over live nodes.
func (w *SoakWorld) nextSecondaryNode() simnet.NodeID {
	n := w.Pool.Net.Len()
	for tries := 0; tries < n; tries++ {
		id := simnet.NodeID(w.nextSecondary % n)
		w.nextSecondary++
		if !w.Pool.Net.Node(id).Down() {
			return id
		}
	}
	return 0
}

// soakHost adapts the world to the controller's Host interface: the
// controller picks WHICH objects change tier; the world places the
// replicas and owns the per-node budget.
type soakHost struct{ w *SoakWorld }

func (h soakHost) NumObjects() int { return len(h.w.objects) }

func (h soakHost) Replicas(obj int) int {
	if obj < 0 || obj >= len(h.w.objects) {
		return 0
	}
	ring, ok := h.w.Pool.Ring(h.w.objects[obj])
	if !ok {
		return 0
	}
	return ring.SecondaryCount()
}

// Promote places one more floating replica of the object, rotating
// over live nodes with spare budget; false when every node is down,
// already a replica, or at its cap — the controller counts that as a
// budget denial.
func (h soakHost) Promote(obj int) bool {
	w := h.w
	if obj < 0 || obj >= len(w.objects) {
		return false
	}
	oid := w.objects[obj]
	ring, ok := w.Pool.Ring(oid)
	if !ok {
		return false
	}
	n := w.Pool.Net.Len()
	for tries := 0; tries < n; tries++ {
		id := simnet.NodeID(w.nextSecondary % n)
		w.nextSecondary++
		if w.Pool.Net.Node(id).Down() {
			continue
		}
		if _, dup := ring.Secondary(id); dup {
			continue
		}
		if w.cfg.NodeBudget > 0 && w.HostedAt(id) >= w.cfg.NodeBudget {
			continue
		}
		if w.Pool.AddReplica(oid, id) == nil {
			w.hostedAdd(id, 1)
			return true
		}
	}
	return false
}

// Demote retires the coldest floating replica (fewest serves, ties to
// the lower node — Secondaries is node-sorted, so the choice is
// deterministic).
func (h soakHost) Demote(obj int) bool {
	w := h.w
	if obj < 0 || obj >= len(w.objects) {
		return false
	}
	oid := w.objects[obj]
	ring, ok := w.Pool.Ring(oid)
	if !ok {
		return false
	}
	secs := ring.Secondaries()
	if len(secs) == 0 {
		return false
	}
	victim := secs[0]
	for _, s := range secs[1:] {
		if s.Reads < victim.Reads {
			victim = s
		}
	}
	if w.Pool.RemoveReplica(oid, victim.Node) != nil {
		return false
	}
	w.hostedAdd(victim.Node, -1)
	return true
}

// Do implements workload.Target.  Reads and creates complete
// synchronously (a read is a local replica inspection in this
// simulation); writes resolve when the primary tier's decision — or
// the session's timeout — arrives.
func (w *SoakWorld) Do(req workload.Request, done func(ok bool)) error {
	s := w.sessions[req.Client%len(w.sessions)]
	switch req.Kind {
	case workload.OpCreate:
		if w.cfg.MaxInFlight > 0 && w.inflight >= w.cfg.MaxInFlight {
			return workload.ErrOverloaded
		}
		_, err := w.createObject()
		done(err == nil)
	case workload.OpWrite:
		if w.cfg.MaxInFlight > 0 && w.inflight >= w.cfg.MaxInFlight {
			return workload.ErrOverloaded
		}
		idx := req.Object % len(w.objects)
		obj := w.objects[idx]
		if w.ctrl != nil {
			w.ctrl.ObserveWrite(idx)
		}
		size := req.Size
		if size > w.cfg.BlockSize {
			size = w.cfg.BlockSize
		}
		if size < 1 {
			size = 1
		}
		id, err := s.Replace(obj, 0, make([]byte, size))
		if err != nil {
			done(false)
			return nil
		}
		w.await[id] = done
		w.inflight++
	default: // OpRead
		idx := req.Object % len(w.objects)
		obj := w.objects[idx]
		if w.ctrl != nil {
			w.ctrl.ObserveRead(idx)
		}
		if w.cfg.ReadService <= 0 {
			_, err := s.Read(obj)
			done(err == nil)
			return nil
		}
		w.modeledRead(s, obj, done)
	}
	return nil
}

// readWireOverhead is the per-direction framing cost the modeled read
// charges on top of the payload.
const readWireOverhead = 64

// modeledRead serves a read with explicit service-time and queueing
// semantics: among the qualifying floating replicas (plus the primary
// anchor, which always qualifies) it picks the server whose predicted
// completion — request latency, FIFO queue wait, ReadService, response
// latency — is earliest, ties to the lower node ID; occupies that
// server; and completes the read through the kernel one round trip
// later.  With a handful of replicas absorbing a flash crowd the queue
// wait dominates and the read tail explodes — exactly the signal the
// introspective controller reacts to by promoting.
func (w *SoakWorld) modeledRead(s *Session, obj guid.GUID, done func(ok bool)) {
	ring, ok := w.Pool.Ring(obj)
	if !ok {
		done(false)
		return
	}
	now := w.Pool.K.Now()
	client := s.c.Node
	var (
		bestNode simnet.NodeID
		bestRep  *epidemic.Replica
		bestSec  *replica.Secondary
		bestDone time.Duration = -1
	)
	consider := func(node simnet.NodeID, rep *epidemic.Replica, sec *replica.Secondary) {
		lat := w.Pool.Net.Latency(client, node)
		start := now + lat
		if b := w.busyAt(node); b > start {
			start = b
		}
		finish := start + w.cfg.ReadService + lat
		if bestDone < 0 || finish < bestDone || (finish == bestDone && node < bestNode) {
			bestNode, bestRep, bestSec, bestDone = node, rep, sec, finish
		}
	}
	s.eligibleSecondaries(ring, obj, func(sec *replica.Secondary) {
		consider(sec.Node, sec.Rep, sec)
	})
	consider(ring.PrimaryAnchor(), ring.PrimaryState(), nil)
	// Occupy the chosen server's FIFO slot and charge the wire.
	start := now + w.Pool.Net.Latency(client, bestNode)
	if b := w.busyAt(bestNode); b > start {
		start = b
	}
	w.setBusy(bestNode, start+w.cfg.ReadService)
	if bestSec != nil {
		bestSec.Reads++
	}
	wire := int64(2*readWireOverhead + w.cfg.BlockSize)
	w.readWire += wire
	w.cReadWire.Add(wire)
	rep := bestRep
	w.Pool.K.After(bestDone-now, func() {
		_, err := s.ReadReplica(obj, rep)
		done(err == nil)
	})
}

// busyAt reports the node's service-queue tail.
func (w *SoakWorld) busyAt(node simnet.NodeID) time.Duration {
	if int(node) >= len(w.busy) {
		return 0
	}
	return w.busy[node]
}

// setBusy extends the node's service-queue tail, growing the slice on
// demand.
func (w *SoakWorld) setBusy(node simnet.NodeID, t time.Duration) {
	for int(node) >= len(w.busy) {
		w.busy = append(w.busy, 0)
	}
	w.busy[node] = t
}

// resolve completes an awaited write (commit, abort, or timeout).
func (w *SoakWorld) resolve(id update.UpdateID, ok bool) {
	done, found := w.await[id]
	if !found {
		return
	}
	delete(w.await, id)
	w.inflight--
	done(ok)
}

// StartChurn bounces one node per period (down for downFor), cycling
// through the world but sparing node 0 so the owner's anchor stays
// up.  Returns a cancel function.
func (w *SoakWorld) StartChurn(every, downFor time.Duration) (stop func()) {
	next := 1
	return w.Pool.K.Every(every, func() {
		n := w.Pool.Net.Len()
		if n < 2 {
			return
		}
		id := simnet.NodeID(next % n)
		if id == 0 {
			next++
			id = simnet.NodeID(next % n)
		}
		next++
		w.Pool.Net.Bounce(id, w.Pool.K.Now(), downFor)
	})
}

// GrowAt schedules count fresh nodes to join the world at virtual
// time t; on arrival they pick up floating replicas via the topology
// callback registered in NewSoakWorld.
func (w *SoakWorld) GrowAt(t time.Duration, count int) {
	w.Pool.Net.GrowAt(t, count, w.cfg.Extent, w.cfg.Domains)
}
