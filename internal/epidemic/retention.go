package epidemic

import (
	"slices"
	"time"

	"oceanstore/internal/object"
	"oceanstore/internal/update"
)

// Memory model (DESIGN.md §12): a replica's resident state is bounded
// by its windows, not by total history.  It retains
//   - one committed window: the log's last Window..2×Window entries,
//     16 bytes each, a pointer to the update's ID record and its
//     outcome (older updates survive only as applied state in base);
//   - the updates of the log's last Reach positions, a pointer each,
//     which is all a catch-up replays (older entries keep their ID
//     record, 32 bytes that every replica logging the update shares);
//   - the log index, 2–4 bytes an entry: window offsets, no IDs;
//   - live tentative updates no older than TentativeExpire.
//
// Everything else — update payloads, outcomes, ID bookkeeping — becomes
// garbage as soon as it leaves these bounds: an update leaves every
// replica's reach Reach commits after it logged, trim re-indexes what
// the log keeps, and expire drops tentative updates, which nothing else
// holds.  The bound is not in-flight work: an object with fewer than
// 2×Window commits keeps an entry for every one of them on every
// replica, so where most objects are cold, as in the soaks, resident
// state grows with committed writes — by ≈ 20 bytes a commit a
// replica, plus the ID record the replicas share; only the last Reach
// updates stay whole.
const (
	// Window is the committed window: a replica's log keeps at least this
	// many recent entries and trims back to it on reaching twice as many.
	// It is also the dedup horizon, which must cover the overlap between
	// a commit's tree push and the anti-entropy that races it; a peer
	// that lags past the window catches up by checkpoint transfer instead
	// of replay.
	Window = 256
	// TentativeExpire discards tentative updates whose optimistic
	// timestamp is older than this.  A tentative update either commits
	// (and is removed by the commit) or was abandoned by its client; one
	// session write timeout (2 min) plus two gossip periods (30 s each)
	// covers any copy still in flight, so expiry only drops dead weight.
	// Without it a timed-out write's tentative copies sit in every
	// replica forever and each Bayou rollback/replay walks them all — the
	// O(ops²) behaviour the million-node soak exposed.
	TentativeExpire = 3 * time.Minute
	// Reach is how many of its last log positions a replica keeps the
	// update of.  A catch-up replays from no further back than that; one
	// that needs an older update adopts a checkpoint instead, as a peer
	// past the window does.  The deepest catch-up measured on the
	// benchmark workloads was 10 entries behind its source's log end
	// (commit 4e487d9's measurement; EXPERIMENTS.md's history lists
	// it), so 16 leaves a 1.6× margin.  Commits that arrive again are
	// answered from the entry's outcome, which needs no update.
	Reach = 16
)

// expire drops tentative updates older than TentativeExpire.  The
// tentative slice is timestamp-ordered, so expired entries form a
// prefix.  Expired IDs leave the dedup table too: every replica applies
// the same virtual-time deadline, and anti-entropy expires both sides
// before exchanging, so an expired update cannot bounce back through
// gossip (a client spread copy arrives within network latency of its
// timestamp, far inside the bound).
func (r *Replica) expire(now time.Duration) {
	cut := 0
	for cut < len(r.tentative) && r.tentative[cut].Timestamp+TentativeExpire < now {
		cut++
	}
	if cut == 0 {
		return
	}
	r.counts.add(Expired, int64(cut))
	n := copy(r.tentative, r.tentative[cut:])
	clear(r.tentative[n:])
	r.tentative = r.tentative[:n]
	r.cached = nil
}

// trim slides the committed window: once the log retains 2×Window
// entries, all but the last Window leave the log, and the index is
// rebuilt over the rest.  Chunked so the cost is amortised O(1) per
// commit.
func (r *Replica) trim() {
	end := r.Log.Len() - Window
	if end-r.Log.Start() < Window {
		return
	}
	r.Log.Trim(end)
	r.reindexLog(len(r.index))
}

// hold keeps u as the update at log position pos, just appended; the
// update Reach positions before it leaves the replica.
func (r *Replica) hold(pos int, u *update.Update) {
	i := pos % Reach
	for len(r.recent) <= i {
		r.recent = append(r.recent, nil)
	}
	r.recent[i] = u
}

// heldAt returns the update at log position pos from a ring of recent
// updates (Replica.recent) for a log of length end, or nil if the ring
// does not hold it.
func heldAt(recent []*update.Update, end, pos int) *update.Update {
	if pos < end-Reach || pos >= end || pos%Reach >= len(recent) {
		return nil
	}
	return recent[pos%Reach]
}

// reindex rebuilds the index over a new log window and drops the
// tentative updates the window covers: they are committed.
func (r *Replica) reindex() {
	r.reindexLog(indexSlots)
	r.tentative = slices.DeleteFunc(r.tentative, func(u *update.Update) bool {
		_, committed := r.find(u.ID())
		return committed
	})
}

// Checkpoint is a replica's committed state in transferable form: the
// object after Len() serialised updates, the log window that ends
// there, and the updates of the window's last positions that the
// replica still held.  The window is what lets the receiver recognise a
// commit the checkpoint already covers when it arrives late — a tree
// push that was in flight while the checkpoint moved; the updates are
// what a receiver close behind replays.
type Checkpoint struct {
	Base *object.Version
	// Start is the log position of Window[0].
	Start  int
	Window []update.LogEntry
	// recent is the source's ring of the updates it held (see
	// Replica.recent), for a log of length Len().
	recent []*update.Update
}

// Len is how many serialised updates the checkpoint covers.
func (c Checkpoint) Len() int { return c.Start + len(c.Window) }

// Update returns the update logged at pos, or nil if the checkpoint
// carries only its entry.
func (c Checkpoint) Update(pos int) *update.Update { return heldAt(c.recent, c.Len(), pos) }

// ReplayFrom is the shortest log a replica can replay up to c from:
// every entry from there to c's end carries its update.  A shorter
// replica adopts c instead.
func (c Checkpoint) ReplayFrom() int {
	from := c.Len()
	for from > c.Start && c.Update(from-1) != nil {
		from--
	}
	return from
}

// Checkpoint captures r's committed state.  The window and the ring are
// copies; committed versions are immutable, so Base is shared.
func (r *Replica) Checkpoint() Checkpoint {
	c := r.view()
	c.Window = slices.Clone(c.Window)
	c.recent = slices.Clone(c.recent)
	return c
}

// view is Checkpoint without the copies, for a catch-up that reads it
// at once (anti-entropy).
func (r *Replica) view() Checkpoint {
	return Checkpoint{Base: r.base, Start: r.Log.Start(), Window: r.Log.Entries(), recent: r.recent}
}

// CatchUp brings r's committed log up to c's, for anti-entropy and tree
// pulls alike: nothing when c is no further along, replay of the
// updates r lacks while c carries every one of them, adoption of c (a
// checkpoint transfer) once r lags past them — past c's window, or past
// the last Reach positions whose updates c holds.  It returns how many
// updates moved, an adoption counting as one.
func (r *Replica) CatchUp(c Checkpoint, now time.Duration) int {
	have := r.CommittedLen()
	switch {
	case c.Len() <= have:
		return 0
	case have < c.ReplayFrom():
		r.Adopt(c)
		r.counts.add(Checkpoints, 1)
		return 1
	}
	for pos := have; pos < c.Len(); pos++ {
		r.Commit(c.Update(pos), pos, now)
	}
	return c.Len() - have
}

// Adopt is CatchUp's adopt step, which compares no heights (the audit
// repairs a replica corrupted at the primary's own height with it): r's
// base becomes the checkpoint's, its log window the checkpoint's window
// (copied in, not counted as commits) with whatever updates c carries,
// and its dedup table the window's IDs plus the tentative updates the
// window does not cover.  (A tentative update committed before the
// window stays until it expires.)
func (r *Replica) Adopt(c Checkpoint) {
	r.base = c.Base
	r.Log.Rebase(c.Start, c.Window)
	r.recent = slices.Clone(c.recent)
	r.reindex()
	r.cached = nil
}
