package archive

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/par"
	"oceanstore/internal/simnet"
)

// Wire kinds (simnet accounting tags).
const (
	KindRequest  = "arch-req"
	KindFragment = "arch-frag"
)

// requestMsg asks a holder for one fragment of an archive.
type requestMsg struct {
	Root  guid.GUID
	Index int
	Reply simnet.NodeID
	Rid   uint64
}

type fragmentMsg struct {
	Frag StoredFragment
	Rid  uint64
}

// Service runs archival storage over the simulated network: it owns the
// per-node fragment stores, serves fragment requests, reconstructs
// objects with configurable over-request, and repairs one archive at a
// time for the Scheduler and the auditor.
type Service struct {
	net *simnet.Network
	// member[id] marks storage members; stores materialize lazily on
	// first fragment, so a million-member service costs one bool per
	// node until data actually lands.
	member []bool
	stores map[simnet.NodeID]Store
	// newStore builds a member's store on first use.  The default is
	// the in-memory NodeStore; SetStoreFactory swaps in a real-I/O
	// backend before any data lands.
	newStore func(simnet.NodeID) Store
	// dirty marks stores with completed writes not yet covered by a
	// Sync.  With SyncEachBatch set (the default) the set drains at the
	// end of every Archive/RepairRoot; a maintenance scheduler that
	// group-commits instead clears the flag and flushes on its own
	// period via SyncDirty.
	dirty map[simnet.NodeID]bool
	// commits counts SyncDirty rounds that had stores to join;
	// commitVolumes sums the stores they joined.
	commits, commitVolumes int64
	// SyncEachBatch syncs every store touched by an Archive or
	// RepairRoot before the call returns.  Leave it set unless a
	// scheduler runs SyncDirty on a flush period — an unsynced write is
	// exactly what fault.PartialFsync deletes.
	SyncEachBatch bool
	// rings[d] lists domain d's members in admission order; domainIDs
	// keeps the member domains sorted.  Dispersal walks these rings
	// with per-archive cursors — O(fragments + domains) per archive —
	// instead of rebuilding a by-domain partition of all n nodes, which
	// is what made 4096-object million-node worlds unconstructible.
	rings     map[int][]simnet.NodeID
	domainIDs []int
	// location: archive root -> fragment index -> holder.  In the full
	// system this index lives in the Plaxton mesh (fragment GUIDs are
	// published like any entity); the service keeps it directly so the
	// archival experiments isolate archival behaviour.
	where map[guid.GUID]Placement
	cfgs  map[guid.GUID]Config

	nextRid  uint64
	inflight map[uint64]*retrievalState

	// byz marks Byzantine storage nodes: they acknowledge everything but
	// serve plausible-looking garbage (right shape, failing hashes) on
	// the wire, while claiming perfect health.  The audit layer exists
	// to catch exactly this (§4.1: promiscuous caching requires data be
	// protected from unauthorized substitution).
	byz map[simnet.NodeID]bool
	// damagedAt records, per archive root, the virtual time of the first
	// still-unrepaired data-plane damage (bit rot, disk wipe).  A
	// successful repair clears the entry; the auditor reads it to report
	// detection latency and tests read it to find silent rot.
	damagedAt map[guid.GUID]time.Duration

	om  archMetrics
	otr *obs.Tracer
}

// archMetrics holds pre-resolved handles for the archival layer; the
// zero value is "not instrumented" (nil handles count nothing).  All
// keys are node-wide: retrievals are driven by a single service and the
// per-link traffic is already visible in the simnet layer.
type archMetrics struct {
	archives      *obs.Counter
	fragsStored   *obs.Counter
	retrievals    *obs.Counter
	retrievalsOK  *obs.Counter
	retrievalsErr *obs.Counter
	fragReqs      *obs.Counter
	fragReplies   *obs.Counter
	fragsRecv     *obs.Counter
	fragsNeeded   *obs.Counter
	retryRounds   *obs.Counter
	repairs       *obs.Counter
	repairFailed  *obs.Counter
	retrievalLat  *obs.Histogram
}

// Instrument attaches an observability registry and/or tracer.  Metrics
// count events only — instrumentation never alters the service's
// behaviour, so instrumented and bare runs take identical trajectories.
func (s *Service) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	s.otr = tr
	c := func(name string) *obs.Counter {
		return reg.Counter(obs.NodeWide, "archive", name)
	}
	s.om = archMetrics{
		archives:      c("archives"),
		fragsStored:   c("frags_stored"),
		retrievals:    c("retrievals"),
		retrievalsOK:  c("retrievals_ok"),
		retrievalsErr: c("retrievals_err"),
		fragReqs:      c("frag_reqs"),
		fragReplies:   c("frag_replies"),
		fragsRecv:     c("frags_recv"),
		fragsNeeded:   c("frags_needed"),
		retryRounds:   c("retry_rounds"),
		repairs:       c("repairs"),
		repairFailed:  c("repair_failed"),
		retrievalLat:  reg.Histogram(obs.NodeWide, "archive", "retrieval_latency_ns"),
	}
}

// NewService creates the archival service with the given nodes as
// storage members.  The service attends the whole network through one
// global handler instead of a per-member closure, so membership size
// does not show up in handler registration.
func NewService(net *simnet.Network, nodes []simnet.Node) *Service {
	s := &Service{
		net:           net,
		stores:        make(map[simnet.NodeID]Store),
		newStore:      func(simnet.NodeID) Store { return NewNodeStore() },
		dirty:         make(map[simnet.NodeID]bool),
		SyncEachBatch: true,
		rings:         make(map[int][]simnet.NodeID),
		where:         make(map[guid.GUID]Placement),
		cfgs:          make(map[guid.GUID]Config),
		inflight:      make(map[uint64]*retrievalState),
		byz:           make(map[simnet.NodeID]bool),
		damagedAt:     make(map[guid.GUID]time.Duration),
	}
	s.AddMembers(nodes)
	net.HandleAll(func(to simnet.NodeID, m simnet.Message) { s.handle(to, m) })
	return s
}

// AddMembers admits nodes to the storage membership, extending the
// per-domain dispersal rings incrementally (O(added), not O(n)).
// Already-admitted nodes are skipped.
func (s *Service) AddMembers(nodes []simnet.Node) {
	maxID := simnet.NodeID(-1)
	for _, n := range nodes {
		if n.ID > maxID {
			maxID = n.ID
		}
	}
	if int(maxID) >= len(s.member) {
		grown := make([]bool, maxID+1)
		copy(grown, s.member)
		s.member = grown
	}
	for _, n := range nodes {
		id := n.ID
		if s.member[id] {
			continue
		}
		s.member[id] = true
		d := n.Domain()
		if len(s.rings[d]) == 0 {
			i := sort.SearchInts(s.domainIDs, d)
			s.domainIDs = append(s.domainIDs, 0)
			copy(s.domainIDs[i+1:], s.domainIDs[i:])
			s.domainIDs[i] = d
		}
		s.rings[d] = append(s.rings[d], id)
	}
}

// isMember reports storage membership.
func (s *Service) isMember(id simnet.NodeID) bool {
	return int(id) < len(s.member) && s.member[id]
}

// SetStoreFactory swaps the store implementation members get on first
// fragment (e.g. a blobstore volume per node).  It must be called
// before any data lands: materialized stores keep their backend.
func (s *Service) SetStoreFactory(f func(simnet.NodeID) Store) {
	if len(s.stores) > 0 {
		panic("archive: SetStoreFactory after stores materialized")
	}
	s.newStore = f
}

// store returns a member's fragment store, materializing it on first
// use; nil for non-members.
func (s *Service) store(id simnet.NodeID) Store {
	if !s.isMember(id) {
		return nil
	}
	ns, ok := s.stores[id]
	if !ok {
		ns = s.newStore(id)
		s.stores[id] = ns
	}
	return ns
}

// Store returns a node's fragment store (tests inject disk loss here).
func (s *Service) Store(id simnet.NodeID) Store { return s.store(id) }

// ioWidth is how many stores one group commit drives at once.  The
// workers block in fsync rather than burn CPU, so the width follows
// what the volumes' disks can overlap, not GOMAXPROCS.
const ioWidth = 16

// joinStores runs op on each listed store across the I/O worker set,
// joins, and folds the outcome in list order: stores whose op succeeded
// leave the dirty set, and the first error is returned.  Every store is
// touched by exactly one worker, the caller is parked until all have
// returned, and results land in per-index slots — so the fold is
// independent of scheduling.  In-memory stores have no I/O to overlap
// and are skipped: a memory-backed service never forks.
func (s *Service) joinStores(ids []simnet.NodeID, op func(Store) error) error {
	errs := make([]error, len(ids))
	disk := make([]int, 0, len(ids))
	for i, id := range ids {
		if _, mem := s.stores[id].(*NodeStore); !mem {
			disk = append(disk, i)
		}
	}
	par.DoWide(ioWidth, len(disk), 1, func(lo, hi int) {
		for _, i := range disk[lo:hi] {
			errs[i] = op(s.stores[ids[i]])
		}
	})
	var first error
	for i, err := range errs {
		if err == nil {
			delete(s.dirty, ids[i])
		} else if first == nil {
			first = err
		}
	}
	return first
}

// SyncDirty group-commits every store with unsynced writes — all
// volumes at once, joined before it returns — and reports the first
// error in node order.  A store whose Sync failed stays dirty, so its
// unsynced bytes are retried by the next call.  The per-batch
// discipline calls this from Archive/RepairRoot; a group-committing
// scheduler calls it on its flush period instead.
func (s *Service) SyncDirty() error {
	if len(s.dirty) == 0 {
		return nil
	}
	ids := make([]simnet.NodeID, 0, len(s.dirty))
	for id := range s.dirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s.commits++
	s.commitVolumes += int64(len(ids))
	return s.joinStores(ids, Store.Sync)
}

// DirtyStores reports how many stores hold writes not yet covered by a
// Sync — the durability exposure window a PartialFsync crash attacks.
func (s *Service) DirtyStores() int { return len(s.dirty) }

// GroupCommits reports how many SyncDirty rounds had stores to join and
// how many stores they joined in total.
func (s *Service) GroupCommits() (rounds, volumes int64) { return s.commits, s.commitVolumes }

// CloseStores syncs and closes every materialized store — the same
// all-at-once join as SyncDirty — and returns the first error in node
// order.  The service is unusable for new data afterwards; call it
// when a disk-backed world shuts down.
func (s *Service) CloseStores() error {
	return s.joinStores(s.StoreNodes(), Store.Close)
}

// Archive encodes data, disperses the fragments across domains, and
// stores them on their chosen nodes.  In the full update path this is
// invoked by the primary tier at commit time (§4.4.4); each member
// generates a disjoint subset of fragments, which the simulation
// performs in one place.
func (s *Service) Archive(data []byte, cfg Config, domainRank []int) (guid.GUID, error) {
	root, frags, err := Encode(data, cfg)
	if err != nil {
		return guid.Zero, err
	}
	placement, err := s.disperse(len(frags), domainRank, root.Uint64(), nil)
	if err != nil {
		return guid.Zero, err
	}
	for i, f := range frags {
		if err := s.store(placement[i]).Put(f); err != nil {
			return guid.Zero, err
		}
		s.dirty[placement[i]] = true
	}
	s.where[root] = placement
	s.cfgs[root] = cfg
	if s.SyncEachBatch {
		if err := s.SyncDirty(); err != nil {
			return guid.Zero, err
		}
	}
	s.om.archives.Inc()
	s.om.fragsStored.Add(int64(len(frags)))
	return root, nil
}

// disperse chooses storage nodes for f fragments from the member
// rings so that fragments spread across administrative domains (§4.5:
// "we avoid dispersing all of our fragments to locations that have a
// high correlated probability of failure"): domains are visited
// round-robin in reliability order — domainRank most-reliable-first,
// unranked domains after — so no domain holds more than its share, and
// within a domain the ring is walked from a seed-derived offset so
// successive archives land on different servers.  Down and excluded
// nodes are skipped at selection time.
// Cost is O(f + member domains) plus any skipped dead nodes — it never
// touches the full membership, which is what lets a million-node world
// archive thousands of objects during construction.
func (s *Service) disperse(f int, domainRank []int, seed uint64, exclude map[simnet.NodeID]bool) (Placement, error) {
	if len(s.domainIDs) == 0 {
		return nil, fmt.Errorf("%w: no member domains", ErrInsufficientDomains)
	}
	// Domain visit order: ranked domains first (that have members),
	// then the remaining member domains in sorted order.
	order := make([]int, 0, len(s.domainIDs))
	ranked := make(map[int]bool, len(domainRank))
	for _, d := range domainRank {
		if len(s.rings[d]) > 0 && !ranked[d] {
			order = append(order, d)
		}
		ranked[d] = true
	}
	for _, d := range s.domainIDs {
		if !ranked[d] {
			order = append(order, d)
		}
	}
	// Per-domain cursors start at a seed- and domain-derived offset:
	// different archives spread over the whole ring instead of piling
	// onto each domain's first nodes.
	cursor := make(map[int]int, len(order))
	for _, d := range order {
		cursor[d] = int((seed ^ uint64(d)*0x9e3779b97f4a7c15) % uint64(len(s.rings[d])))
	}
	placement := make(Placement, f)
	// exhausted marks domains a full ring walk found no usable node in
	// (every member down or excluded).  Without it the probe loop walks
	// every dead ring again for every remaining fragment — and a
	// cursor-based variant that forgets where it started spins forever.
	// When all domains exhaust, the caller gets the typed error so it
	// can distinguish "placement impossible" from I/O failures.
	exhausted := make(map[int]bool, len(order))
	di := int(seed % uint64(len(order)))
	for i := 0; i < f; i++ {
		placed := false
		for try := 0; try < len(order) && !placed; try++ {
			d := order[(di+try)%len(order)]
			if exhausted[d] {
				continue
			}
			ring := s.rings[d]
			for probe := 0; probe < len(ring); probe++ {
				nid := ring[cursor[d]%len(ring)]
				cursor[d]++
				if s.net.Node(nid).Down() || exclude[nid] {
					continue
				}
				placement[i] = nid
				di = (di + try + 1) % len(order)
				placed = true
				break
			}
			if !placed {
				exhausted[d] = true
			}
		}
		if !placed {
			return nil, fmt.Errorf("%w: %d domains, all exhausted placing fragment %d/%d",
				ErrInsufficientDomains, len(order), i, f)
		}
	}
	return placement, nil
}

// Placement exposes where an archive's fragments live.
func (s *Service) Placement(root guid.GUID) (Placement, bool) {
	p, ok := s.where[root]
	return p, ok
}

// LiveFragments counts fragments of an archive that are on live nodes
// and still verify — the redundancy level the repair scan monitors.
func (s *Service) LiveFragments(root guid.GUID) int {
	live := 0
	for idx, nid := range s.where[root] {
		if s.net.Node(nid).Down() {
			continue
		}
		ns := s.stores[nid]
		if ns == nil {
			continue
		}
		if sf, ok := ns.Get(root, idx); ok && sf.Verify() {
			live++
		}
	}
	return live
}

// Retrieve reconstructs an archive from node `from`, requesting
// required+extra fragments.  Requests propagate as messages subject to
// the network's drop probability; §5 reports that over-requesting
// ("issuing requests for extra fragments") pays for itself under
// drops, which experiment E6 reproduces.  cb fires exactly once: with
// the data on success, or with an error at the deadline.
func (s *Service) Retrieve(from simnet.NodeID, root guid.GUID, extra int, deadline time.Duration, cb func([]byte, error, time.Duration)) {
	placement, ok := s.where[root]
	cfg := s.cfgs[root]
	s.om.retrievals.Inc()
	if !ok {
		s.om.retrievalsErr.Inc()
		cb(nil, ErrUnknownRoot, 0)
		return
	}
	s.om.fragsNeeded.Add(int64(cfg.DataShards))
	// Any node may request a reconstruction: the service's global
	// handler already attends every node, so fragment replies reach a
	// requester that stores no fragments itself.
	s.nextRid++
	rid := s.nextRid
	if s.otr != nil {
		s.otr.Emit(obs.Event{
			T: int64(s.net.K.Now()), Node: int(from), Peer: -1,
			Layer: "archive", Event: "retrieve-begin", ID: rid,
		})
	}
	st := &retrievalState{
		cfg:     cfg,
		got:     make(map[int]StoredFragment),
		cb:      cb,
		started: s.net.K.Now(),
	}
	s.inflight[rid] = st

	// sendRound recomputes the live candidate set each call: holders that
	// crashed since the last round drop out, recovered holders rejoin.
	// Closest holders are asked first — fragment search finds close
	// fragments first as it climbs the location tree (§4.5) — and each
	// round widens the over-request by one so later rounds escalate to
	// fragments in alternate domains (across a partition cut, the far
	// side is unreachable; escalation keeps adding holders until the RS
	// threshold's worth of reachable ones is covered).
	type cand struct {
		idx int
		nid simnet.NodeID
	}
	round := 0
	sendRound := func() {
		var cands []cand
		for idx, nid := range placement {
			if _, have := st.got[idx]; have {
				continue
			}
			if !s.net.Node(nid).Down() {
				cands = append(cands, cand{idx, nid})
			}
		}
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				if s.net.Latency(from, cands[j].nid) < s.net.Latency(from, cands[i].nid) {
					cands[i], cands[j] = cands[j], cands[i]
				}
			}
		}
		need := cfg.DataShards - len(st.got)
		want := need + extra + round
		if want > len(cands) {
			want = len(cands)
		}
		for _, c := range cands[:want] {
			s.om.fragReqs.Inc()
			s.net.Send(from, c.nid, KindRequest,
				requestMsg{Root: root, Index: c.idx, Reply: from, Rid: rid}, 64)
		}
	}
	sendRound()
	// Re-request missing fragments with capped exponential backoff:
	// requests and replies both ride a lossy network, so the requester
	// retries until the deadline (soft-state, like everything else in
	// OceanStore).
	const maxGap = 8 * time.Second
	var rearm func(gap time.Duration)
	rearm = func(gap time.Duration) {
		s.net.K.After(gap, func() {
			if st.done {
				return
			}
			round++
			s.net.NoteRetry(KindRequest)
			s.om.retryRounds.Inc()
			sendRound()
			next := gap * 2
			if next > maxGap {
				next = maxGap
			}
			rearm(next)
		})
	}
	rearm(time.Second)
	s.net.K.After(deadline, func() {
		if st.done {
			return
		}
		st.done = true
		delete(s.inflight, rid)
		s.om.retrievalsErr.Inc()
		if s.otr != nil {
			s.otr.Emit(obs.Event{
				T: int64(s.net.K.Now()), Node: int(from), Peer: -1,
				Layer: "archive", Event: "retrieve-fail", ID: rid,
			})
		}
		st.cb(nil, errors.New("archive: retrieval deadline exceeded"), s.net.K.Now()-st.started)
	})
}

func (s *Service) handle(id simnet.NodeID, m simnet.Message) {
	switch p := m.Payload.(type) {
	case requestMsg:
		ns := s.stores[id]
		if ns == nil {
			return
		}
		sf, ok := ns.Get(p.Root, p.Index)
		if !ok {
			return
		}
		if s.byz[id] {
			sf = garble(sf)
		}
		s.om.fragReplies.Inc()
		s.net.Send(id, p.Reply, KindFragment, fragmentMsg{Frag: sf, Rid: p.Rid}, sf.WireSize())
	case fragmentMsg:
		st, ok := s.inflight[p.Rid]
		if !ok || st.done {
			return
		}
		if !p.Frag.Verify() {
			return // a misbehaving server's garbage is simply discarded
		}
		s.om.fragsRecv.Inc()
		st.got[p.Frag.Index] = p.Frag
		if len(st.got) < st.cfg.DataShards {
			return
		}
		frags := make([]StoredFragment, 0, len(st.got))
		for _, f := range st.got {
			frags = append(frags, f)
		}
		data, err := Decode(frags, st.cfg)
		if err != nil {
			return // tornado peeling may stall; wait for more fragments
		}
		st.done = true
		for rid, other := range s.inflight {
			if other == st {
				delete(s.inflight, rid)
			}
		}
		elapsed := s.net.K.Now() - st.started
		s.om.retrievalsOK.Inc()
		s.om.retrievalLat.ObserveDuration(elapsed)
		if s.otr != nil {
			s.otr.Emit(obs.Event{
				T: int64(s.net.K.Now()), Node: int(id), Peer: -1,
				Layer: "archive", Event: "retrieve-done", ID: p.Rid, Bytes: len(data),
			})
		}
		st.cb(data, nil, elapsed)
	}
}

// ErrUnknownRoot reports a repair or audit request for an archive the
// service has never stored.
var ErrUnknownRoot = errors.New("archive: unknown archive root")

// ErrInsufficientDomains reports that fragment placement ran every
// member domain dry: each domain's ring held only down or excluded
// nodes.  Callers that passed an exclude set can retry without it
// (data on a suspect beats no data at all); callers that did not are
// looking at a world with no live storage.
var ErrInsufficientDomains = errors.New("archive: insufficient live domains to disperse onto")

// RepairRoot reconstructs one archive from whatever reachable fragments
// still verify and re-disperses a fresh fragment set, skipping nodes in
// exclude (the auditor passes its disreputable set, so repair moves
// data off suspected liars).  On success any outstanding damage record
// for the root is cleared.  Errors are never silent: an unrecoverable
// archive returns the decode error and bumps archive/repair_failed.
func (s *Service) RepairRoot(root guid.GUID, domainRank []int, exclude map[simnet.NodeID]bool) error {
	placement, ok := s.where[root]
	if !ok {
		return s.repairFailed(root, ErrUnknownRoot)
	}
	cfg := s.cfgs[root]
	// Gather whatever is reachable; Decode filters non-verifying
	// fragments itself, so rotted or garbled copies cannot poison the
	// reconstruction.
	var frags []StoredFragment
	for idx, nid := range placement {
		if s.net.Node(nid).Down() {
			continue
		}
		ns := s.stores[nid]
		if ns == nil {
			continue
		}
		if sf, ok := ns.Get(root, idx); ok {
			frags = append(frags, sf)
		}
	}
	data, err := Decode(frags, cfg)
	if err != nil {
		return s.repairFailed(root, fmt.Errorf("archive: repair cannot reconstruct %v: %w", root, err))
	}
	newRoot, newFrags, err := Encode(data, cfg)
	if err != nil {
		return s.repairFailed(root, err)
	}
	if newRoot != root {
		// Same data and config reproduce the same fragment set and
		// root, so this cannot diverge; guard anyway.
		return s.repairFailed(root, errors.New("archive: repair re-encode diverged from root"))
	}
	newPlacement, err := s.disperse(len(newFrags), domainRank, root.Uint64()+1, exclude)
	if errors.Is(err, ErrInsufficientDomains) && len(exclude) > 0 {
		// Excluding every live node would make repair impossible; data
		// on a suspect beats no data at all.
		newPlacement, err = s.disperse(len(newFrags), domainRank, root.Uint64()+1, nil)
	}
	if err != nil {
		return s.repairFailed(root, err)
	}
	for i, f := range newFrags {
		if err := s.store(newPlacement[i]).Put(f); err == nil {
			s.where[root][i] = newPlacement[i]
			s.dirty[newPlacement[i]] = true
		}
	}
	if s.SyncEachBatch {
		if err := s.SyncDirty(); err != nil {
			return s.repairFailed(root, err)
		}
	}
	delete(s.damagedAt, root)
	s.om.repairs.Inc()
	if s.otr != nil {
		s.otr.Emit(obs.Event{
			T: int64(s.net.K.Now()), Node: -1, Peer: -1,
			Layer: "archive", Event: "repair", ID: root.Uint64(),
		})
	}
	return nil
}

// repairFailed accounts one failed repair and returns its error.
func (s *Service) repairFailed(root guid.GUID, err error) error {
	s.om.repairFailed.Inc()
	if s.otr != nil {
		s.otr.Emit(obs.Event{
			T: int64(s.net.K.Now()), Node: -1, Peer: -1,
			Layer: "archive", Event: "repair-fail", ID: root.Uint64(),
		})
	}
	return err
}
