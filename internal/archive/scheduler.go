package archive

import (
	"sort"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/simnet"
)

// Scheduler is the archival layer's repair engine — the only one: a
// background maintenance loop of rate-limited ticks, the way production
// blob stores run repair (CubeFS's BlobStore scheduler does disk
// repair, balance and inspection as budgeted background jobs; §4.5's
// "slowly sweep through all existing archival data" is the same idea
// said smaller).
//
// Three independent periodic duties, all on the virtual clock:
//
//   - SCRUB: walk every stored fragment at scrubFragsPerTick per tick,
//     re-read it through the store (real disk I/O on a blobstore
//     backend) and re-verify it against its Merkle proof.  Proven-rot
//     copies are dropped and their roots queued for repair.  Scrub
//     catches silent on-disk rot; Byzantine nodes keep honest disks
//     and lie on the wire, so they remain the audit layer's problem.
//   - REPAIR: drain the scrub-found queue plus a slow cursor scan of
//     all roots whose live redundancy fell to or below Threshold,
//     repairing at most RepairsPerTick per tick.  Roots whose repair
//     fails retry under capped exponential backoff (the same shape as
//     the audit layer's poll backoff) so an unrecoverable archive
//     cannot monopolize the budget.
//   - FLUSH: with FlushInterval set the scheduler owns durability:
//     per-batch fsync is switched off and dirty stores are group-
//     committed as soon as the kernel runs — covering whatever was
//     stored before Start — and on the flush period from then on.
//     Cheaper by orders of magnitude on disk, and it opens the real
//     unsynced window that the PartialFsync fault attacks.
//
// The scheduler draws no randomness and sends no messages; its reads
// and repairs are ordered by sorted snapshots, so an instrumented,
// disk-backed run takes a trajectory byte-identical to a bare one.
type Scheduler struct {
	svc *Service
	cfg SchedulerConfig

	// queue is the scrub work list: a sorted snapshot of every held
	// (node, root, index), consumed front to back and rebuilt when
	// empty — one full pass over the data per rebuild.
	queue []scrubRef
	// pending holds roots needing repair (scrub hits + scan hits).
	pending map[guid.GUID]bool
	// backoff delays retry of roots whose repair failed.
	backoff map[guid.GUID]*schedBackoff
	// scanCursor is the last root the redundancy scan visited; the next
	// tick resumes strictly after it and wraps at the end.
	scanCursor    guid.GUID
	scanHasCursor bool

	stats   SchedulerStats
	metrics schedMetrics
}

type scrubRef struct {
	node  int // simnet.NodeID, kept as int for compactness
	root  guid.GUID
	index int
}

type schedBackoff struct {
	until time.Duration
	gap   time.Duration
}

// SchedulerConfig tunes the maintenance loop.  Zero values take
// defaults.
type SchedulerConfig struct {
	// ScrubInterval is the scrub tick period.
	ScrubInterval time.Duration
	// RepairInterval is the repair tick period; RepairsPerTick bounds
	// repairs attempted per tick.
	RepairInterval time.Duration
	RepairsPerTick int
	// Threshold is the live-fragment level at or below which a root is
	// queued for repair (DataShards+1 leaves one fragment of slack).
	Threshold int
	// FlushInterval, when positive, moves fsync from per-batch to a
	// group commit on this period (Start clears svc.SyncEachBatch).
	FlushInterval time.Duration
}

const (
	// scanRootsPerTick bounds how many roots the redundancy scan
	// inspects per repair tick.
	scanRootsPerTick = 128
	// scrubFragsPerTick bounds fragments re-read and re-verified per
	// scrub tick.
	scrubFragsPerTick = 64
	// repairBackoffBase and repairBackoffMax bound the retry gap for
	// roots whose repair failed.
	repairBackoffBase = 2 * time.Minute
	repairBackoffMax  = 32 * time.Minute
)

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.ScrubInterval <= 0 {
		c.ScrubInterval = 30 * time.Second
	}
	if c.RepairInterval <= 0 {
		c.RepairInterval = time.Minute
	}
	if c.RepairsPerTick <= 0 {
		c.RepairsPerTick = 4
	}
	if c.Threshold <= 0 {
		c.Threshold = 4
	}
	return c
}

// SchedulerStats counts the maintenance loop's work.  Pure functions
// of the operation sequence — safe to print in deterministic reports.
type SchedulerStats struct {
	ScrubbedFrags int64 // fragments re-read and verified
	ScrubBad      int64 // fragments that failed verification (dropped)
	ScrubMissing  int64 // queued fragments gone by scrub time
	ScrubBytes    int64 // payload bytes re-read by scrubbing
	ScrubPasses   int64 // completed full passes over all fragments
	Repairs       int64 // successful background repairs
	RepairFailed  int64 // failed repair attempts
	// RepairsDeferred adds, each repair tick, one per queued root still
	// inside its backoff window and — when the budget runs out — the
	// whole queue's length that tick, repaired roots included: a count of
	// queued-root ticks withheld, not of distinct roots.
	RepairsDeferred int64
	Flushes         int64 // group-commit SyncDirty rounds that synced
	FlushErrors     int64 // SyncDirty rounds that returned an error
}

type schedMetrics struct {
	scrubFrags, scrubBad, scrubMissing, scrubBytes *obs.Counter
	repairs, repairFailed, repairsDeferred         *obs.Counter
	flushes                                        *obs.Counter
}

// NewScheduler builds a maintenance scheduler over a service.
func NewScheduler(svc *Service, cfg SchedulerConfig) *Scheduler {
	return &Scheduler{
		svc:     svc,
		cfg:     cfg.withDefaults(),
		pending: make(map[guid.GUID]bool),
		backoff: make(map[guid.GUID]*schedBackoff),
	}
}

// Instrument attaches counters under the "scrub" layer; a nil registry
// resolves to nil handles, which count nothing.  Counting never alters
// behaviour.
func (sc *Scheduler) Instrument(reg *obs.Registry) {
	c := func(name string) *obs.Counter {
		return reg.Counter(obs.NodeWide, "scrub", name)
	}
	sc.metrics = schedMetrics{
		scrubFrags:      c("frags"),
		scrubBad:        c("bad"),
		scrubMissing:    c("missing"),
		scrubBytes:      c("bytes"),
		repairs:         c("bg_repairs"),
		repairFailed:    c("bg_repair_failed"),
		repairsDeferred: c("bg_repairs_deferred"),
		flushes:         c("store_flushes"),
	}
}

// Start arms the periodic duties on the service's kernel and returns a
// stop function.  With FlushInterval set it also takes over durability
// from the per-batch discipline.
func (sc *Scheduler) Start() (stop func()) {
	k := sc.svc.net.K
	var cancels []func()
	cancels = append(cancels, k.Every(sc.cfg.ScrubInterval, sc.scrubTick))
	cancels = append(cancels, k.Every(sc.cfg.RepairInterval, sc.repairTick))
	if sc.cfg.FlushInterval > 0 {
		sc.svc.SyncEachBatch = false
		cancels = append(cancels, k.Every(sc.cfg.FlushInterval, sc.flushTick))
		// Whatever was archived before Start (a world's initial versions)
		// is dirty now; commit it at once rather than a period from now.
		first := k.After(0, sc.flushTick)
		cancels = append(cancels, func() { first.Stop() })
	}
	return func() {
		for _, c := range cancels {
			c()
		}
		if sc.cfg.FlushInterval > 0 {
			// Hand durability back: drain the dirty set and restore the
			// per-batch discipline.
			if err := sc.svc.SyncDirty(); err != nil {
				sc.stats.FlushErrors++
			}
			sc.svc.SyncEachBatch = true
		}
	}
}

// Stats returns a copy of the scheduler's counters.
func (sc *Scheduler) Stats() SchedulerStats { return sc.stats }

// refillQueue snapshots every held (node, root, index) in sorted
// order: nodes ascending, then each store's Scan order (root GUID,
// index).  A fragment stored after the snapshot waits for the next
// pass — scrubbing is eventual, not immediate.
func (sc *Scheduler) refillQueue() {
	for _, id := range sc.svc.StoreNodes() {
		sc.svc.stores[id].Scan(func(root guid.GUID, index int) bool {
			sc.queue = append(sc.queue, scrubRef{node: int(id), root: root, index: index})
			return true
		})
	}
}

// scrubTick re-reads and re-verifies up to scrubFragsPerTick
// fragments.  Rot is dropped on the spot — a copy proven bad is worse
// than a missing one, because retrieval and repair both have to read
// it before discarding it — and the root joins the repair queue.
func (sc *Scheduler) scrubTick() {
	if len(sc.queue) == 0 {
		sc.refillQueue()
		if len(sc.queue) == 0 {
			return
		}
	}
	n := scrubFragsPerTick
	if n > len(sc.queue) {
		n = len(sc.queue)
	}
	batch := sc.queue[:n]
	sc.queue = sc.queue[n:]
	for _, ref := range batch {
		ns := sc.svc.stores[simnet.NodeID(ref.node)]
		if ns == nil {
			continue
		}
		sf, ok := ns.Get(ref.root, ref.index)
		if !ok {
			// Dropped, wiped or crashed away since the snapshot; the
			// redundancy scan notices if the root fell below threshold.
			sc.stats.ScrubMissing++
			sc.metrics.scrubMissing.Inc()
			continue
		}
		sc.stats.ScrubbedFrags++
		sc.stats.ScrubBytes += int64(len(sf.Data))
		sc.metrics.scrubFrags.Inc()
		sc.metrics.scrubBytes.Add(int64(len(sf.Data)))
		if sf.Verify() {
			continue
		}
		sc.stats.ScrubBad++
		sc.metrics.scrubBad.Inc()
		sc.svc.DropFragment(simnet.NodeID(ref.node), ref.root, ref.index)
		sc.svc.noteDamage(ref.root)
		sc.pending[ref.root] = true
	}
	if len(sc.queue) == 0 {
		sc.stats.ScrubPasses++
	}
}

// repairTick advances the redundancy scan cursor, then repairs up to
// RepairsPerTick queued roots in GUID order, honouring backoff.
func (sc *Scheduler) repairTick() {
	roots := sc.svc.Roots()
	if len(roots) > 0 {
		// Resume strictly after the cursor; wrap at the end.
		start := 0
		if sc.scanHasCursor {
			start = sort.Search(len(roots), func(i int) bool {
				return roots[i].Compare(sc.scanCursor) > 0
			})
		}
		n := min(scanRootsPerTick, len(roots))
		for i := 0; i < n; i++ {
			root := roots[(start+i)%len(roots)]
			sc.scanCursor, sc.scanHasCursor = root, true
			if sc.svc.LiveFragments(root) <= sc.cfg.Threshold {
				sc.pending[root] = true
			}
		}
	}
	if len(sc.pending) == 0 {
		return
	}
	queued := make([]guid.GUID, 0, len(sc.pending))
	for root := range sc.pending {
		queued = append(queued, root)
	}
	sort.Slice(queued, func(i, j int) bool { return queued[i].Compare(queued[j]) < 0 })
	now := sc.svc.net.K.Now()
	budget := sc.cfg.RepairsPerTick
	for _, root := range queued {
		if budget == 0 {
			sc.defer1(len(queued))
			break
		}
		if b, ok := sc.backoff[root]; ok && now < b.until {
			sc.defer1(1)
			continue
		}
		budget--
		if err := sc.svc.RepairRoot(root, nil, nil); err != nil {
			sc.stats.RepairFailed++
			sc.metrics.repairFailed.Inc()
			b := sc.backoff[root]
			if b == nil {
				b = &schedBackoff{gap: repairBackoffBase}
				sc.backoff[root] = b
			}
			b.until = now + b.gap
			b.gap *= 2
			if b.gap > repairBackoffMax {
				b.gap = repairBackoffMax
			}
			continue
		}
		delete(sc.pending, root)
		delete(sc.backoff, root)
		sc.stats.Repairs++
		sc.metrics.repairs.Inc()
	}
}

// defer1 accounts repairs withheld this tick (see
// SchedulerStats.RepairsDeferred for what the sum means).
func (sc *Scheduler) defer1(n int) {
	sc.stats.RepairsDeferred += int64(n)
	sc.metrics.repairsDeferred.Add(int64(n))
}

// flushTick group-commits dirty stores.
func (sc *Scheduler) flushTick() {
	if sc.svc.DirtyStores() == 0 {
		return
	}
	if err := sc.svc.SyncDirty(); err != nil {
		sc.stats.FlushErrors++
		return
	}
	sc.stats.Flushes++
	sc.metrics.flushes.Inc()
}
