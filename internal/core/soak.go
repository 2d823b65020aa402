package core

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"oceanstore/internal/acl"
	"oceanstore/internal/archive"
	"oceanstore/internal/blobstore"
	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/introspect"
	"oceanstore/internal/obs"
	"oceanstore/internal/replica"
	"oceanstore/internal/simnet"
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
	// BlockSize is the object block granularity; soak writes replace
	// block 0, so object state stays bounded over a million updates.
	BlockSize int
	// MaxInFlight is the backpressure threshold, per object: a write to
	// an object with this many accepted-but-unresolved writes is shed
	// (ErrOverloaded), so a wedged tier sheds only its own object's
	// writes.
	MaxInFlight int
	// ArchiveEvery archives a ring every N commits (soak loosens the
	// paper's every-commit coupling so archival cost stays sublinear).
	ArchiveEvery int
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
	// ReadService, when positive, sends each read over the network
	// (Session.RemoteRead) to a replica server that takes this long over
	// it in a per-node FIFO: the first server is the one, among the
	// qualifying floating replicas and the primary anchor, whose reply
	// would arrive first, so read latency is a real queueing quantity
	// that degrades when few replicas absorb a flash crowd.  0 serves
	// each read synchronously from the session's replica, at zero
	// latency: the path of every soak that does not study read queueing.
	ReadService time.Duration
	// Introspect arms the introspective replica controller (§4.7.2): it
	// watches per-object read/write traffic and promotes/demotes
	// floating replicas under hysteresis, budgets, and rate limits.
	Introspect bool
	// IntrospectEpoch is the controller's observation epoch
	// (DefaultSoakConfig: 10s).
	IntrospectEpoch time.Duration
	// NodeBudget caps how many floating replicas introspective
	// promotion may place on one node (default 8).  Static placement
	// (Secondaries) is the operator's choice and is not bounded by it.
	NodeBudget int
	// IntrospectCfg tunes the controller; zero fields take defaults.
	IntrospectCfg introspect.ControllerConfig
	// Link model: the coordinate extent and the administrative domains
	// nodes are spread over.
	Extent  float64
	Domains int
}

const (
	// soakWriteTimeout bounds how long a write may stay unresolved in
	// virtual time before the session gives up (abort) — without it, a
	// write stalled behind churn retransmits forever and a closed loop
	// never finishes.  A networked read has the same deadline.
	soakWriteTimeout = 2 * time.Minute
	// soakRetainVersions caps each object's retained version history;
	// deep-archival copies persist regardless.
	soakRetainVersions = 8
	// soakGossipInterval is the secondary anti-entropy period.
	soakGossipInterval = 30 * time.Second
	// soakGuarantees are the session guarantees every client runs under.
	soakGuarantees = ReadYourWrites
	// soakBaseLatency and soakLatencyPerUnit are the WAN-ish link model:
	// a fixed cost plus one per unit of coordinate distance.
	soakBaseLatency    = 15 * time.Millisecond
	soakLatencyPerUnit = time.Millisecond
	// certLookahead is how many creates ahead an object's certificate
	// starts signing.  A certificate started in its own create is
	// joined ~80 µs later, before the helper has woken; sixteen creates
	// later most are ready, and the rest are signed in the join, as
	// they were before the offload (DESIGN §"Leaf offload").
	certLookahead = 16
)

// DefaultSoakConfig scales a soak world to the given node count:
// objects ~ nodes/16, clients ~ nodes/32 (clamped).
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
		BlockSize:       512,
		MaxInFlight:     clamp(nodes/32, 8, 1024),
		ArchiveEvery:    256,
		IntrospectEpoch: 10 * time.Second,
		NodeBudget:      8,
		Extent:          100,
		Domains:         8,
	}
}

// SoakWorld is a pool wired up as a workload.Target: reads are served
// through sessions, writes resolve through the full Fig-5 update path
// (agreement, dissemination, archival), creates provision fresh
// objects with secondaries, and backpressure sheds an object's writes
// once too many of them are unresolved.
type SoakWorld struct {
	Pool *Pool
	cfg  SoakConfig

	owner    *Client
	sessions []*Session
	objects  []guid.GUID
	// writes holds, beside each of objects, its writes' tally: what
	// backpressure admits against, and the exactly-once check in
	// Problems.
	writes []writeTally
	// writers grants every soak client write privilege; each object's
	// one certificate binds it at creation.
	writers *acl.ACL
	// ahead holds the writers certificates for the next certLookahead
	// names, soak-<i> in slot i % certLookahead, signing on par's
	// helper until their create joins them.
	ahead [certLookahead]*acl.Certificate

	// Rotation cursors: replica placement and growth attachment.
	nextSecondary int
	growIdx       int
	created       int

	// hosted counts floating replicas per node — the budget the
	// introspective promoter must respect.
	hosted []int
	// ctrl is the introspective replica controller (nil when off).
	ctrl *introspect.Controller

	// sched is the archival maintenance scheduler (nil when off).
	sched     *archive.Scheduler
	schedStop func()
}

// NewSoakWorld builds the world: a meshless pool (O(n) construction),
// pre-created objects with floating replicas, and one session per
// virtual client.  All clients share the owner's key ring, so any
// client can read and write any object.
func NewSoakWorld(seed int64, cfg SoakConfig) (*SoakWorld, error) {
	pc := PoolConfig{
		Nodes:     cfg.Nodes,
		Domains:   cfg.Domains,
		BlockSize: cfg.BlockSize,
		Ring: replica.Config{
			ArchiveEvery:   cfg.ArchiveEvery,
			Archive:        archive.Config{DataShards: 4, TotalFragments: 8},
			GossipInterval: soakGossipInterval,
			HistoryBound:   soakRetainVersions,
		},
		Extent:         cfg.Extent,
		BaseLatency:    soakBaseLatency,
		LatencyPerUnit: soakLatencyPerUnit,
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
	w := &SoakWorld{Pool: p, cfg: cfg}
	if cfg.ReadService > 0 {
		p.reads().service = cfg.ReadService
	}
	w.owner = p.NewClient(0, crypt.NewSigner(p.K.Rand()))
	for i := 0; i < cfg.Clients; i++ {
		c := p.NewClient(simnet.NodeID(i%cfg.Nodes), crypt.NewSigner(p.K.Rand()))
		c.Keys = w.owner.Keys
		s := c.NewSession(soakGuarantees)
		s.UpdateTimeout = soakWriteTimeout
		w.sessions = append(w.sessions, s)
	}
	w.writers = &acl.ACL{}
	for _, s := range w.sessions {
		w.writers.Entries = append(w.writers.Entries,
			acl.Entry{PubKey: s.c.Signer.Public(), Priv: acl.PrivWrite})
	}
	p.ACLs.AddACL(w.writers)
	for i := range w.ahead {
		w.ahead[i] = w.startCert(i)
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
		p.K.Every(cfg.IntrospectEpoch, w.ctrl.Tick)
	}
	return w, nil
}

// Controller exposes the introspective replica controller (nil when
// the world runs without one).
func (w *SoakWorld) Controller() *introspect.Controller { return w.ctrl }

// ReadWireBytes reports the read bytes simnet does not count: the
// versions read replies carried, whose 64 B headers simnet charges.
func (w *SoakWorld) ReadWireBytes() int64 {
	if rs := w.Pool.readSvc; rs != nil {
		return rs.data
	}
	return 0
}

// Scheduler exposes the archival maintenance scheduler (nil when the
// world runs without one).
func (w *SoakWorld) Scheduler() *archive.Scheduler { return w.sched }

// Instrument attaches observability to the pool, the maintenance
// scheduler, and the introspection layer; the registry reads the read
// bytes simnet does not count as a lifetime total.
func (w *SoakWorld) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	w.Pool.Instrument(reg, tr)
	if w.sched != nil {
		w.sched.Instrument(reg)
	}
	reg.CounterSource("introspect", "read_wire_bytes", obs.Value(w.ReadWireBytes))
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
	// The certificates started for names never created are joined, so
	// no signature outlives the world.
	for _, c := range w.ahead {
		c.Signature()
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

// InFlight reports the accepted writes not yet resolved, over every
// object.
func (w *SoakWorld) InFlight() int {
	n := 0
	for _, t := range w.writes {
		n += t.unresolved()
	}
	return n
}

// Problems checks the world's end state, at quiescence, and describes
// each violation it finds; none means every check passed.  Checked:
//   - nothing is in flight: every write the world accepted was
//     acknowledged or abandoned, and every networked read resolved;
//   - every write committed exactly once: the commits an object's
//     primary gained since its creation number at least the writes
//     acknowledged (none lost) and at most those plus the writes
//     abandoned, which may still have committed (none applied twice);
//   - every secondary's committed log is a prefix of its primary's;
//   - every object's tier members kept one order (Divergences).
//
// The exactly-once check is a count by design, not a scan for update
// IDs: the primary keeps only a window of its log, and CommittedLen
// counts the whole of it.  It means nothing for an object with writes
// in flight, which is reported instead.
func (w *SoakWorld) Problems() []string {
	var out []string
	if rs := w.Pool.readSvc; rs != nil && len(rs.inflight) != 0 {
		out = append(out, fmt.Sprintf("%d reads still in flight", len(rs.inflight)))
	}
	for i, obj := range w.objects {
		ring, _ := w.Pool.Ring(obj)
		primary := ring.PrimaryState()
		t := w.writes[i]
		switch n := primary.CommittedLen() - t.base; {
		case t.unresolved() != 0:
			out = append(out, fmt.Sprintf("object %s: %d writes accepted, but %d were acknowledged and %d abandoned: %d still in flight",
				obj.Short(), t.sent, t.acked, t.abandoned, t.unresolved()))
		case n < t.acked || n > t.acked+t.abandoned:
			out = append(out, fmt.Sprintf("object %s: the primary committed %d writes, but %d were acknowledged and %d abandoned",
				obj.Short(), n, t.acked, t.abandoned))
		}
		out = append(out, ring.PrefixProblems()...)
	}
	return append(out, w.Divergences()...)
}

// Divergences describes, one line per object in creation order, each
// object whose tier members ran different requests at one sequence
// number, or one request at different sequence numbers: how many
// executions another member's record contradicts.  A run whose tiers
// keep one order has none.
func (w *SoakWorld) Divergences() []string {
	var out []string
	for _, obj := range w.objects {
		ring, _ := w.Pool.Ring(obj)
		if n := ring.Group().Divergences(); n > 0 {
			out = append(out, fmt.Sprintf("object %s: %d executions contradict another tier member's", obj.Short(), n))
		}
	}
	return out
}

// writeTally counts one object's soak writes: accepted (sent), and by
// how they resolved — acknowledged as committed, or abandoned (failed
// or timed out) — and holds base, its primary's committed length at
// creation.  failed counts every write the workload saw fail, abandoned
// or refused before it was sent, between the virtual times of the
// first and the last.
type writeTally struct {
	base, sent, acked, abandoned int
	failed                       int
	firstFail, lastFail          time.Duration
}

// fail notes a failed write at now.
func (t *writeTally) fail(now time.Duration) {
	if t.failed == 0 {
		t.firstFail = now
	}
	t.failed++
	t.lastFail = now
}

// Failures describes, one line per object in creation order, each
// object that failed a write: how many failed, and the virtual times
// of the first and the last failure.  A run in which no write failed
// has none.
func (w *SoakWorld) Failures() []string {
	var out []string
	for i, t := range w.writes {
		if t.failed > 0 {
			out = append(out, fmt.Sprintf("object %s: %d writes failed, first at %v, last at %v",
				w.objects[i].Short(), t.failed, t.firstFail, t.lastFail))
		}
	}
	return out
}

// unresolved is how many of the object's accepted writes have not yet
// been acknowledged or abandoned.
func (t writeTally) unresolved() int { return t.sent - t.acked - t.abandoned }

// createObject provisions one object with its floating replicas,
// bound to the writers ACL by the certificate started certLookahead
// creates earlier, and refills that slot for the name certLookahead
// creates on.
func (w *SoakWorld) createObject() (guid.GUID, error) {
	i := w.created
	w.created++
	slot := &w.ahead[i%certLookahead]
	cert := *slot
	*slot = w.startCert(i + certLookahead)
	obj, err := w.owner.create(soakName(i), make([]byte, w.cfg.BlockSize), cert)
	if err != nil {
		return guid.Zero, err
	}
	w.placeSecondaries(obj)
	ring, _ := w.Pool.Ring(obj)
	w.objects = append(w.objects, obj)
	w.writes = append(w.writes, writeTally{base: ring.PrimaryState().CommittedLen()})
	return obj, nil
}

// placeSecondaries gives a new object its Secondaries floating
// replicas.  The first is on the primary anchor, the dissemination
// tree's root, which applies every commit without a push.  The rest
// rotate over the node IDs, skipping nodes that already hold the
// object, so they spread outside the tier that the locality order
// packed into one part of the network.
func (w *SoakWorld) placeSecondaries(obj guid.GUID) {
	if w.cfg.Secondaries <= 0 {
		return
	}
	ring, _ := w.Pool.Ring(obj)
	tier := ring.PrimaryNodes()
	w.addSecondary(obj, tier[0])
	for j := 1; j < w.cfg.Secondaries; j++ {
		node, ok := w.rotateNode(func(id simnet.NodeID) bool {
			_, dup := ring.Secondary(id)
			return !dup && !slices.Contains(tier, id)
		})
		if ok {
			w.addSecondary(obj, node)
		}
	}
}

// startCert starts signing the writers certificate for soak-<i>.
func (w *SoakWorld) startCert(i int) *acl.Certificate {
	owner := w.owner.Signer
	obj := guid.FromOwnerAndName(owner.Public(), soakName(i))
	return acl.StartCertify(owner, obj, w.writers, 1)
}

func soakName(i int) string { return fmt.Sprintf("soak-%d", i) }

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

// rotateNode is replica placement's one rotation: it advances the
// placement cursor over the nodes for at most one lap and returns the
// first live node accept takes.  When none does — every node down, in
// the worst case — it returns node 0 and false.
func (w *SoakWorld) rotateNode(accept func(simnet.NodeID) bool) (simnet.NodeID, bool) {
	n := w.Pool.Net.Len()
	for tries := 0; tries < n; tries++ {
		id := simnet.NodeID(w.nextSecondary % n)
		w.nextSecondary++
		if !w.Pool.Net.Node(id).Down() && accept(id) {
			return id, true
		}
	}
	return 0, false
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
	_, placed := w.rotateNode(func(id simnet.NodeID) bool {
		if _, dup := ring.Secondary(id); dup {
			return false
		}
		if w.cfg.NodeBudget > 0 && w.HostedAt(id) >= w.cfg.NodeBudget {
			return false
		}
		if w.Pool.AddReplica(oid, id) != nil {
			return false
		}
		w.hostedAdd(id, 1)
		return true
	})
	return placed
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

// Do implements workload.Target.  Creates complete synchronously, and
// so do reads with ReadService 0 (a local replica inspection); with a
// service time a read is a request and a reply through the network,
// and resolves when the reply — or its deadline — arrives.  Writes
// resolve when the primary tier's decision — or the session's timeout
// — arrives.  Only writes are shed, each against its own object's
// unresolved writes.
func (w *SoakWorld) Do(req workload.Request, done func(ok bool)) error {
	s := w.sessions[req.Client%len(w.sessions)]
	switch req.Kind {
	case workload.OpCreate:
		_, err := w.createObject()
		done(err == nil)
	case workload.OpWrite:
		idx := req.Object % len(w.objects)
		if w.cfg.MaxInFlight > 0 && w.writes[idx].unresolved() >= w.cfg.MaxInFlight {
			return workload.ErrOverloaded
		}
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
		if _, err := s.replace(obj, 0, make([]byte, size), func(ok bool) {
			if ok {
				w.writes[idx].acked++
			} else {
				w.writes[idx].abandoned++
				w.writes[idx].fail(w.Pool.K.Now())
			}
			done(ok)
		}); err != nil {
			w.writes[idx].fail(w.Pool.K.Now())
			done(false)
			return nil
		}
		w.writes[idx].sent++
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
		s.RemoteRead(obj, soakWriteTimeout, func(_ []byte, err error) { done(err == nil) })
	}
	return nil
}

// StartChurn bounces one node per period (down for downFor), cycling
// through the world in placement order — the primary tiers' members in
// the order objects took them — but sparing the order's first node so
// object 0's anchor stays up.  Returns a cancel function.
func (w *SoakWorld) StartChurn(every, downFor time.Duration) (stop func()) {
	next := 1
	return w.Pool.K.Every(every, func() {
		n := w.Pool.Net.Len()
		if n < 2 {
			return
		}
		if next%n == 0 {
			next++
		}
		w.Pool.Net.Bounce(w.Pool.placed(next%n), w.Pool.K.Now(), downFor)
		next++
	})
}

// GrowAt schedules count fresh nodes to join the world at virtual
// time t; on arrival they pick up floating replicas via the topology
// callback registered in NewSoakWorld.
func (w *SoakWorld) GrowAt(t time.Duration, count int) {
	w.Pool.Net.GrowAt(t, count, w.cfg.Extent, w.cfg.Domains)
}
