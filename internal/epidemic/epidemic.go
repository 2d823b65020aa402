// Package epidemic implements the secondary tier's weak-consistency
// machinery (paper §4.4.3), in the style of the Bayou system [13].
//
// Secondary replicas hold both committed and *tentative* data.  Client
// updates carry optimistic timestamps; secondaries order tentative
// updates by timestamp and spread them among themselves with an
// epidemic (anti-entropy) communication pattern.  When the primary
// tier's final serialisation arrives, each secondary rolls back its
// tentative suffix and replays: committed updates apply in the
// primary's order, and remaining tentative updates re-apply on top in
// timestamp order.  Because the primary uses the same timestamps to
// guide its ordering, the tentative order usually matches the final
// one, and applications that can tolerate tentative data see their
// writes almost immediately.
package epidemic

import (
	"sort"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/obs"
	"oceanstore/internal/update"
)

// Replica is one secondary replica of a single object.
type Replica struct {
	// base is the object state at the tail of the committed log.
	base *object.Version
	// committed is the final-order log from the primary tier.
	committed []*update.Update
	// tentative holds updates not yet committed, kept in timestamp order.
	tentative []*update.Update
	// known is the one dedup table: an update the replica has never met
	// is absent, one it holds tentatively is present, and one the primary
	// tier has serialised here is present with committed set and its
	// logged outcome.  The same update can arrive via the dissemination
	// tree AND anti-entropy — on a soak run that overlap makes duplicate
	// commits a steady-state path, not a corner case — and the second
	// arrival is answered from here in one probe.
	known map[update.UpdateID]dedup
	// vv is a version vector: the highest contiguous Seq seen per client
	// across both logs, used to summarise state for anti-entropy.
	vv map[guid.GUID]uint64

	// committedBase counts committed updates pruned from the front of
	// the retained window (see Retention); CommittedLen stays the total.
	committedBase int
	// dedupQ remembers committed IDs in arrival order so the dedup maps
	// can be pruned on the same horizon as the committed window.
	dedupQ []update.UpdateID
	ret    Retention

	// cached tentative state; invalidated by any log change.
	cached     *object.Version
	cacheValid bool
	// Log records every applied update, commit or abort (§4.4.1).
	Log *update.Log

	om epiMetrics
}

// dedup is what the replica remembers about one update ID.
type dedup struct {
	committed bool
	out       update.Outcome // the logged outcome, once committed
}

// epiMetrics holds pre-resolved per-replica observability handles; the
// zero value is "not instrumented" (nil handles count nothing).
type epiMetrics struct {
	tentative   *obs.Counter
	commits     *obs.Counter
	aborts      *obs.Counter
	dupCommits  *obs.Counter
	replays     *obs.Counter
	expired     *obs.Counter
	checkpoints *obs.Counter
}

// Families is the epidemic layer's counter families on one registry.
// Every replica of every object reports into the same seven, one series
// per hosting node, so whoever instruments replicas in bulk (a ring,
// for its primary state and each secondary) resolves the names once
// and pays an integer lookup per replica.
type Families struct {
	tentative, commits, aborts, dupCommits, replays, expired, checkpoints *obs.CounterFamily
}

// NewFamilies resolves the layer's families on reg; a nil registry
// gives nil, which Instrument takes as "detach".
func NewFamilies(reg *obs.Registry) *Families {
	if reg == nil {
		return nil
	}
	return &Families{
		tentative:   reg.CounterFamily("epidemic", "tentative"),
		commits:     reg.CounterFamily("epidemic", "commits"),
		aborts:      reg.CounterFamily("epidemic", "aborts"),
		dupCommits:  reg.CounterFamily("epidemic", "dup_commits"),
		replays:     reg.CounterFamily("epidemic", "replays"),
		expired:     reg.CounterFamily("epidemic", "expired"),
		checkpoints: reg.CounterFamily("epidemic", "checkpoints"),
	}
}

// Instrument attaches observability counters keyed to the hosting node.
// Counts already accumulated in the log are back-filled so a replica
// instrumented after creation still reports its full history.  Counting
// never changes replica behaviour.
func (r *Replica) Instrument(f *Families, node int) {
	if f == nil {
		r.om = epiMetrics{}
		return
	}
	r.om = epiMetrics{
		tentative:   f.tentative.At(node),
		commits:     f.commits.At(node),
		aborts:      f.aborts.At(node),
		dupCommits:  f.dupCommits.At(node),
		replays:     f.replays.At(node),
		expired:     f.expired.At(node),
		checkpoints: f.checkpoints.At(node),
	}
	c, a := r.Log.Counts()
	r.om.commits.Add(int64(c))
	r.om.aborts.Add(int64(a))
}

// New creates a secondary replica starting from the initial version.
func New(v0 *object.Version) *Replica {
	return &Replica{
		base:  v0,
		known: make(map[update.UpdateID]dedup),
		vv:    make(map[guid.GUID]uint64),
		Log:   update.NewLog(),
	}
}

// NewAt creates a replica whose base already incorporates the first
// `committed` updates of the final order — a checkpoint join.  A
// secondary added mid-run starts here instead of replaying the whole
// history; vv0 (may be nil) seeds the version vector from the source.
func NewAt(v0 *object.Version, committed int, vv0 map[guid.GUID]uint64) *Replica {
	r := New(v0)
	r.committedBase = committed
	r.Log.Rebase(committed)
	for c, s := range vv0 {
		r.vv[c] = s
	}
	return r
}

// tsLess orders updates by (timestamp, client, seq) — the deterministic
// tentative order every secondary agrees on.
func tsLess(a, b *update.Update) bool {
	if a.Timestamp != b.Timestamp {
		return a.Timestamp < b.Timestamp
	}
	if c := a.ClientID.Compare(b.ClientID); c != 0 {
		return c < 0
	}
	return a.Seq < b.Seq
}

// AddTentative ingests a client update (directly from a client or via
// anti-entropy).  Duplicates are ignored.  It returns true when the
// update was new.
func (r *Replica) AddTentative(u *update.Update) bool {
	id := u.ID()
	if _, seen := r.known[id]; seen {
		return false
	}
	r.known[id] = dedup{}
	i := sort.Search(len(r.tentative), func(i int) bool { return tsLess(u, r.tentative[i]) })
	r.tentative = append(r.tentative, nil)
	copy(r.tentative[i+1:], r.tentative[i:])
	r.tentative[i] = u
	if u.Seq > r.vv[u.ClientID] {
		r.vv[u.ClientID] = u.Seq
	}
	r.om.tentative.Inc()
	r.cacheValid = false
	return true
}

// Commit applies the primary tier's next committed update, in the final
// serialisation order.  The update is removed from the tentative set if
// present; tentative state is rolled back and replayed on demand.
func (r *Replica) Commit(u *update.Update, now time.Duration) update.Outcome {
	id := u.ID()
	d, seen := r.known[id]
	if d.committed {
		r.om.dupCommits.Inc()
		// Already serialised here (tree push and anti-entropy can both
		// deliver the same commit); report the logged outcome.
		return d.out
	}
	if !seen && u.Seq > r.vv[u.ClientID] {
		r.vv[u.ClientID] = u.Seq
	}
	// Drop from tentative if present.
	for i, tu := range r.tentative {
		if tu.ID() == id {
			r.tentative = append(r.tentative[:i], r.tentative[i+1:]...)
			break
		}
	}
	r.committed = append(r.committed, u)
	next, out, err := update.Apply(u, r.base, now)
	if err == nil && out.Committed {
		r.base = next
		out.Result = next.GUID()
	}
	r.known[id] = dedup{committed: true, out: out}
	if r.ret.CommitWindow > 0 {
		r.dedupQ = append(r.dedupQ, id)
		r.pruneCommitted()
	}
	r.expire(now)
	// Aborts leave base untouched but are still logged (§4.4.1).
	r.Log.Append(u, out, now)
	if out.Committed {
		r.om.commits.Inc()
	} else {
		r.om.aborts.Inc()
	}
	r.cacheValid = false
	return out
}

// CommittedState returns the object at the tail of the committed log —
// what a session demanding full consistency reads.
func (r *Replica) CommittedState() *object.Version { return r.base }

// TentativeState returns committed state plus tentative updates applied
// in timestamp order — what an optimistic session reads.  The replay is
// recomputed after any log change (Bayou rollback/replay).
func (r *Replica) TentativeState(now time.Duration) *object.Version {
	r.expire(now)
	if r.cacheValid {
		return r.cached
	}
	r.om.replays.Inc()
	v := r.base
	for _, u := range r.tentative {
		next, out, err := update.Apply(u, v, now)
		if err == nil && out.Committed {
			v = next
		}
	}
	r.cached, r.cacheValid = v, true
	return v
}

// CommittedLen returns the committed log length (the commit sequence
// number the replica has reached), including any pruned prefix.
func (r *Replica) CommittedLen() int { return r.committedBase + len(r.committed) }

// TentativeLen returns the number of pending tentative updates.
func (r *Replica) TentativeLen() int { return len(r.tentative) }

// Tentative returns the tentative updates in the agreed tentative order.
func (r *Replica) Tentative() []*update.Update {
	return append([]*update.Update(nil), r.tentative...)
}

// Seen reports whether the replica has the update in either log.
func (r *Replica) Seen(id update.UpdateID) bool {
	_, seen := r.known[id]
	return seen
}

// VersionVector returns a copy of the replica's version vector.
func (r *Replica) VersionVector() map[guid.GUID]uint64 {
	out := make(map[guid.GUID]uint64, len(r.vv))
	for k, v := range r.vv {
		out[k] = v
	}
	return out
}

// Dominates reports whether this replica has seen everything summarised
// by the other vector — the session-guarantee test for "is this replica
// fresh enough".
func (r *Replica) Dominates(other map[guid.GUID]uint64) bool {
	for c, s := range other {
		if r.vv[c] < s {
			return false
		}
	}
	return true
}

// AntiEntropy performs one bidirectional epidemic exchange between two
// replicas of the same object: each ships the tentative updates the
// other lacks, and the shorter committed log is fast-forwarded from the
// longer one — by replay while the gap fits the sender's retained
// window, by checkpoint transfer once it doesn't.  It returns how many
// updates moved in total (a checkpoint counts as one move).
func AntiEntropy(a, b *Replica, now time.Duration) int {
	a.expire(now)
	b.expire(now)
	moved := 0
	// Committed prefix sync: committed logs are prefixes of one final
	// order, so the longer one extends the shorter.
	if a.CommittedLen() < b.CommittedLen() {
		a, b = b, a
	}
	if lag := a.CommittedLen() - b.CommittedLen(); lag > len(a.committed) {
		// b is missing updates a no longer retains: state transfer.
		b.adoptCheckpoint(a, now)
		moved++
	} else if lag > 0 {
		for _, u := range a.committed[len(a.committed)-lag:] {
			b.Commit(u, now)
			moved++
		}
	}
	// Tentative exchange, both directions (iterate in place: AddTentative
	// on the receiver cannot disturb the sender's slice).
	for _, u := range a.tentative {
		if !b.Seen(u.ID()) {
			b.AddTentative(u)
			moved++
		}
	}
	for _, u := range b.tentative {
		if !a.Seen(u.ID()) {
			a.AddTentative(u)
			moved++
		}
	}
	return moved
}
