package epidemic

import (
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
)

// Retention bounds a replica's resident state so a long soak run's
// heap stays proportional to in-flight work instead of total history.
// The zero value disables every bound and preserves the unbounded
// semantics exactly — correctness tests and small experiments run with
// retention off; the soak configuration turns it on.
//
// Memory model (DESIGN.md §12): with retention on, a replica retains
//   - the committed window: the last CommitWindow committed updates
//     (older updates survive only as applied state in base);
//   - a dedup horizon of roughly 2×CommitWindow recently committed
//     update IDs, enough to absorb the tree-push/anti-entropy overlap;
//   - live tentative updates no older than TentativeExpire.
//
// Everything else — update payloads, outcomes, ID bookkeeping — becomes
// garbage as soon as it leaves these windows.  The ID bookkeeping is one
// table (Replica.known) holding one entry per ID in either the dedup
// horizon or the tentative set: expiry deletes the entries of the
// tentative updates it drops, and pruneCommitted deletes those of the
// committed IDs it retires from dedupQ, so the table never outgrows
// dedupQ plus the live tentative updates.
type Retention struct {
	// TentativeExpire discards tentative updates whose optimistic
	// timestamp is older than this.  A tentative update either commits
	// (and is removed by the commit) or was abandoned by its client; the
	// session write timeout bounds how long "abandoned" can take, so an
	// expiry a little beyond it only drops dead weight.  Without it a
	// timed-out write's tentative copies sit in every replica forever
	// and each Bayou rollback/replay walks them all — the O(ops²)
	// behaviour the million-node soak exposed.  0 = never expire.
	TentativeExpire time.Duration
	// CommitWindow caps the retained committed-log suffix.  Peers that
	// lag more than the window catch up by checkpoint transfer (adopting
	// the peer's base state) instead of replaying the missing updates.
	// 0 = unbounded.
	CommitWindow int
}

// dedupWindow is how many recently committed update IDs stay in the
// dedup table once retention is on.  Twice
// the commit window plus a floor comfortably covers the tree-push /
// anti-entropy overlap at any gossip cadence.
func (ret Retention) dedupWindow() int {
	w := 2 * ret.CommitWindow
	if w < 64 {
		w = 64
	}
	return w
}

// SetRetention installs retention bounds.  Call before traffic; the
// bounds apply from the next commit or expiry sweep on.
func (r *Replica) SetRetention(ret Retention) { r.ret = ret }

// expire drops tentative updates older than the retention bound.  The
// tentative slice is timestamp-ordered, so expired entries form a
// prefix.  Expired IDs leave the dedup table too: every replica applies
// the same virtual-time deadline, and anti-entropy expires both sides
// before exchanging, so an expired update cannot bounce back through
// gossip (a client spread copy arrives within network latency of its
// timestamp, far inside any sane bound).
func (r *Replica) expire(now time.Duration) {
	if r.ret.TentativeExpire <= 0 || len(r.tentative) == 0 {
		return
	}
	cut := 0
	for cut < len(r.tentative) && r.tentative[cut].Timestamp+r.ret.TentativeExpire < now {
		delete(r.known, r.tentative[cut].ID())
		cut++
	}
	if cut == 0 {
		return
	}
	r.om.expired.Add(int64(cut))
	n := copy(r.tentative, r.tentative[cut:])
	for i := n; i < len(r.tentative); i++ {
		r.tentative[i] = nil
	}
	r.tentative = r.tentative[:n]
	r.cacheValid = false
}

// pruneCommitted slides the committed window and retires dedup entries
// that fell out of the horizon.  Chunked (trigger at 2× the bound,
// trim back to the bound) so the cost is amortised O(1) per commit.
func (r *Replica) pruneCommitted() {
	if r.ret.CommitWindow <= 0 {
		return
	}
	if w := r.ret.CommitWindow; len(r.committed) >= 2*w {
		drop := len(r.committed) - w
		n := copy(r.committed, r.committed[drop:])
		for i := n; i < len(r.committed); i++ {
			r.committed[i] = nil
		}
		r.committed = r.committed[:n]
		r.committedBase += drop
	}
	if w := r.ret.dedupWindow(); len(r.dedupQ) >= 2*w {
		drop := len(r.dedupQ) - w
		for _, id := range r.dedupQ[:drop] {
			delete(r.known, id)
		}
		n := copy(r.dedupQ, r.dedupQ[drop:])
		r.dedupQ = r.dedupQ[:n]
	}
}

// adoptCheckpoint fast-forwards r from a peer that has pruned the
// updates r is missing: r adopts the peer's base state wholesale (the
// state-transfer arm of anti-entropy).
func (r *Replica) adoptCheckpoint(from *Replica, now time.Duration) {
	r.AdoptCheckpoint(from.base, from.CommittedLen(), from.vv)
	_ = now
}

// AdoptCheckpoint installs a transferred checkpoint: base state after
// committedLen serialised updates, plus the checkpoint's version
// vector.  Committed versions are immutable, so sharing the base
// pointer is safe.  The version vector merges up; tentative updates
// the adopted prefix already covers stay until they expire (their
// replay is idempotent against newer state for at most one expiry
// window).  A checkpoint older than the replica's own state is
// ignored.
func (r *Replica) AdoptCheckpoint(base *object.Version, committedLen int, vv map[guid.GUID]uint64) {
	if committedLen <= r.CommittedLen() {
		return
	}
	r.base = base
	r.committedBase = committedLen
	for i := range r.committed {
		r.committed[i] = nil
	}
	r.committed = r.committed[:0]
	r.Log.Rebase(committedLen)
	for c, s := range vv {
		if s > r.vv[c] {
			r.vv[c] = s
		}
	}
	r.om.checkpoints.Inc()
	r.cacheValid = false
}
