package archive

import (
	"sort"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/simnet"
)

// Scheduler is the archival layer's background maintenance loop of
// rate-limited ticks, the way production blob stores run repair
// (CubeFS's BlobStore scheduler does disk repair, balance and
// inspection as budgeted background jobs; §4.5's "slowly sweep through
// all existing archival data" is the same idea said smaller).  Its
// scrub and scan feed the service's one repair queue, which the audit
// layer's damning verdicts feed too; each drains it once per tick under
// its own budget.
//
// Three independent periodic duties, all on the virtual clock:
//
//   - SCRUB: walk every stored fragment at scrubFragsPerTick per tick,
//     re-read it through the store (real disk I/O on a blobstore
//     backend) and re-verify it against its Merkle proof.  Proven-rot
//     copies are dropped and their roots queued for repair.  Scrub
//     catches silent on-disk rot; Byzantine nodes keep honest disks
//     and lie on the wire, so they remain the audit layer's problem.
//   - REPAIR: every minute, queue the roots a slow cursor scan finds at
//     or below Threshold live fragments, then drain the queue with
//     Service.RepairQueued, at most RepairsPerTick repairs per tick.
//     Roots whose repair fails retry under capped exponential backoff
//     so an unrecoverable archive cannot monopolize the budget.
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
	// scanCursor is the last root the redundancy scan visited; the next
	// tick resumes strictly after it and wraps at the end.
	scanCursor    guid.GUID
	scanHasCursor bool

	stats SchedulerStats
}

type scrubRef struct {
	node  int // simnet.NodeID, kept as int for compactness
	root  guid.GUID
	index int
}

// SchedulerConfig tunes the maintenance loop.  Zero values take
// defaults.
type SchedulerConfig struct {
	// ScrubInterval is the scrub tick period.
	ScrubInterval time.Duration
	// RepairsPerTick bounds repairs attempted per repair tick.
	RepairsPerTick int
	// Threshold is the live-fragment level at or below which a root is
	// queued for repair (DataShards+1 leaves one fragment of slack).
	Threshold int
	// FlushInterval, when positive, moves fsync from per-batch to a
	// group commit on this period (Start clears svc.SyncEachBatch).
	FlushInterval time.Duration
}

const (
	// repairInterval is the repair tick period.
	repairInterval = time.Minute
	// scanRootsPerTick bounds how many roots the redundancy scan
	// inspects per repair tick.
	scanRootsPerTick = 128
	// scrubFragsPerTick bounds fragments re-read and re-verified per
	// scrub tick.
	scrubFragsPerTick = 64
)

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.ScrubInterval <= 0 {
		c.ScrubInterval = 30 * time.Second
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
	// RepairsDeferred sums Service.RepairQueued's deferred count over
	// repair ticks: queued-root ticks withheld, not distinct roots.
	RepairsDeferred int64
	Flushes         int64 // group-commit SyncDirty rounds that synced
	FlushErrors     int64 // SyncDirty rounds that returned an error
}

// NewScheduler builds a maintenance scheduler over a service.
func NewScheduler(svc *Service, cfg SchedulerConfig) *Scheduler {
	return &Scheduler{svc: svc, cfg: cfg.withDefaults()}
}

// Instrument registers the scheduler's Stats under the "scrub" layer,
// so reg reads their lifetime totals; a nil registry ignores the call.
// Counting never alters behaviour.
func (sc *Scheduler) Instrument(reg *obs.Registry) {
	count := func(name string, p *int64) {
		reg.CounterSource("scrub", name, obs.Value(func() int64 { return *p }))
	}
	count("frags", &sc.stats.ScrubbedFrags)
	count("bad", &sc.stats.ScrubBad)
	count("missing", &sc.stats.ScrubMissing)
	count("bytes", &sc.stats.ScrubBytes)
	count("bg_repairs", &sc.stats.Repairs)
	count("bg_repair_failed", &sc.stats.RepairFailed)
	count("bg_repairs_deferred", &sc.stats.RepairsDeferred)
	count("store_flushes", &sc.stats.Flushes)
}

// Start arms the periodic duties on the service's kernel and returns a
// stop function.  With FlushInterval set it also takes over durability
// from the per-batch discipline.
func (sc *Scheduler) Start() (stop func()) {
	k := sc.svc.net.K
	var cancels []func()
	cancels = append(cancels, k.Every(sc.cfg.ScrubInterval, sc.scrubTick))
	cancels = append(cancels, k.Every(repairInterval, sc.repairTick))
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
			continue
		}
		sc.stats.ScrubbedFrags++
		sc.stats.ScrubBytes += int64(len(sf.Data))
		if sf.Verify() {
			continue
		}
		sc.stats.ScrubBad++
		sc.svc.DropFragment(simnet.NodeID(ref.node), ref.root, ref.index)
		sc.svc.noteDamage(ref.root)
		sc.svc.QueueRepair(ref.root)
	}
	if len(sc.queue) == 0 {
		sc.stats.ScrubPasses++
	}
}

// repairTick advances the redundancy scan cursor, then drains the
// repair queue under the RepairsPerTick budget.
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
				sc.svc.QueueRepair(root)
			}
		}
	}
	repaired, failed, deferred := sc.svc.RepairQueued(sc.cfg.RepairsPerTick)
	sc.stats.Repairs += int64(repaired)
	sc.stats.RepairFailed += int64(failed)
	sc.stats.RepairsDeferred += int64(deferred)
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
}
