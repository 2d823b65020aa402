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
	// tentative holds updates not yet committed, kept in timestamp order.
	tentative []*update.Update
	// index finds an update in the committed log window by ID, where its
	// outcome is (index.go).  The same update can arrive via the
	// dissemination tree AND anti-entropy — on a soak run that overlap
	// makes duplicate commits a steady-state path, not a corner case —
	// and the second arrival is answered from the window in one probe.
	index []uint16

	// cached is the tentative state, nil once any change invalidates it.
	cached *object.Version
	// Log is the committed stream in the primary tier's order, commits
	// and aborts alike (§4.4.1); it retains the last Window..2×Window
	// entries (see trim).  Held by value: CommittedLen is read for every
	// candidate replica of every read.
	Log update.Log
	// recent holds the updates of the log's last Reach positions, the
	// one at position p in recent[p%Reach], nil where the replica never
	// held it (an adopted checkpoint may bring fewer); it grows to Reach
	// slots as positions fill.  Entries before them keep only ID and
	// outcome (retention.go).
	recent []*update.Update

	// counts is the hosting node's slot in a Tally; nil counts nothing.
	counts *Counts
}

// The counts a hosting node keeps, indexes into Counts, in the order
// countNames lists their series.
const (
	Tentative   = iota // updates first met tentatively
	Commits            // committed updates applied at the log end
	Aborts             // aborted updates logged at the log end
	DupCommits         // commits that arrived again
	Replays            // tentative states rebuilt
	Expired            // tentative updates dropped for age
	Checkpoints        // checkpoint transfers adopted
	numCounts
)

var countNames = [numCounts]string{"tentative", "commits", "aborts", "dup_commits", "replays", "expired", "checkpoints"}

// Counts is what the replicas on one hosting node have counted, every
// object's together.  Methods on a nil *Counts count nothing, so an
// uninstrumented replica pays one nil check.
type Counts [numCounts]int64

func (c *Counts) add(i int, n int64) {
	if c != nil {
		c[i] += n
	}
}

// Tally is the epidemic layer's counts on one registry: one Counts per
// hosting node, in a slice indexed by node, served to the registry as
// one CounterSource per count that walks the slice in node order.  A
// slot outlives the replicas that count into it: a retired replica's
// counts stay in the dump, and a replica that returns to the node adds
// to them.
type Tally struct {
	reg   *obs.Registry
	nodes []*Counts
	hosts int // non-nil slots
}

// NewTally creates the tally for reg; a nil registry gives a nil tally,
// whose At gives nil Counts.
func NewTally(reg *obs.Registry) *Tally {
	if reg == nil {
		return nil
	}
	return &Tally{reg: reg}
}

// At returns the node's slot, making it on first use.  The first slot
// registers the tally's sources, so a registry no replica reports into
// holds no epidemic families.
func (t *Tally) At(node int) *Counts {
	if t == nil {
		return nil
	}
	for len(t.nodes) <= node {
		t.nodes = append(t.nodes, nil)
	}
	if t.nodes[node] == nil {
		if t.hosts == 0 {
			for c, name := range countNames {
				t.reg.CounterSource("epidemic", name, tallySource{t, c})
			}
		}
		t.nodes[node] = new(Counts)
		t.hosts++
	}
	return t.nodes[node]
}

// tallySource serves one count of a Tally, a series per hosting node.
type tallySource struct {
	t *Tally
	c int
}

func (s tallySource) Each(visit func(node int, v int64)) {
	for node, c := range s.t.nodes {
		if c != nil {
			visit(node, c[s.c])
		}
	}
}

// Instrument points the replica's counting at c, its hosting node's
// slot in a Tally; nil detaches it.  Commits and aborts already in the
// log are back-filled, so a replica instrumented after creation still
// reports its full history.  Counting never changes replica behaviour.
func (r *Replica) Instrument(c *Counts) {
	r.counts = c
	commits, aborts := r.Log.Counts()
	c.add(Commits, int64(commits))
	c.add(Aborts, int64(aborts))
}

// New creates a secondary replica starting from the initial version.
func New(v0 *object.Version) *Replica {
	return &Replica{base: v0}
}

// NewAt creates a replica from a checkpoint — a checkpoint join.  A
// secondary added mid-run adopts it instead of replaying the whole
// history; before the first commit there is nothing to adopt.
func NewAt(c Checkpoint) *Replica {
	r := New(c.Base)
	if c.Len() > 0 {
		r.Adopt(c)
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
	if r.Seen(u.ID()) {
		return false
	}
	i := sort.Search(len(r.tentative), func(i int) bool { return tsLess(u, r.tentative[i]) })
	r.tentative = append(r.tentative, nil)
	copy(r.tentative[i+1:], r.tentative[i:])
	r.tentative[i] = u
	r.counts.add(Tentative, 1)
	r.cached = nil
	return true
}

// Commit applies the primary tier's committed update u at pos, its
// position in the tier's final order, so the log stays a prefix of the
// primary's.  Below the log end u is a duplicate (tree push and
// anti-entropy both deliver commits), answered with its logged outcome
// while the window holds it; an ID the window holds counts as logged
// there, which is how the primary's own state, committing at its log
// end, turns away an update executed twice.  At the end u is applied
// and leaves the tentative set (tentative state is rolled back and
// replayed on demand).  Past the end a commit before it is missing, so
// u waits for anti-entropy to fill the gap in order.
func (r *Replica) Commit(u *update.Update, pos int, now time.Duration) update.Outcome {
	id := u.ID()
	if at, logged := r.logged(id); logged {
		pos = at
	}
	switch end := r.Log.Len(); {
	case pos < end:
		r.counts.add(DupCommits, 1)
		if pos < r.Log.Start() {
			return update.Outcome{}
		}
		return r.Log.At(pos).Outcome
	case pos > end:
		return update.Outcome{}
	}
	// Drop from tentative if present.
	for i, tu := range r.tentative {
		if tu.ID() == id {
			r.tentative = append(r.tentative[:i], r.tentative[i+1:]...)
			break
		}
	}
	next, out, err := update.Apply(u, r.base, now)
	if err == nil && out.Committed {
		r.base = next
	}
	// Aborts leave base untouched but are still logged (§4.4.1).
	r.Log.Append(u, out)
	r.hold(pos, u)
	r.indexLast()
	r.trim()
	r.expire(now)
	if out.Committed {
		r.counts.add(Commits, 1)
	} else {
		r.counts.add(Aborts, 1)
	}
	r.cached = nil
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
	if r.cached != nil {
		return r.cached
	}
	r.counts.add(Replays, 1)
	v := r.base
	for _, u := range r.tentative {
		next, out, err := update.Apply(u, v, now)
		if err == nil && out.Committed {
			v = next
		}
	}
	r.cached = v
	return v
}

// CommittedLen returns the committed log length (the commit sequence
// number the replica has reached), including the trimmed prefix.
func (r *Replica) CommittedLen() int { return r.Log.Len() }

// PrefixOf reports whether r's committed log is a prefix of primary's:
// no longer, and the same update ID at every position both retain.
func (r *Replica) PrefixOf(primary *Replica) bool {
	if r.CommittedLen() > primary.CommittedLen() {
		return false
	}
	for pos := max(r.Log.Start(), primary.Log.Start()); pos < r.CommittedLen(); pos++ {
		if r.Log.At(pos).ID() != primary.Log.At(pos).ID() {
			return false
		}
	}
	return true
}

// Seen reports whether the replica holds the update: in its committed
// log window, or tentatively.
func (r *Replica) Seen(id update.UpdateID) bool {
	_, logged := r.find(id)
	return logged || r.tentativeHas(id)
}

// Held returns the replica's copy of the update whose content digest
// is d: a tentative copy, or the update its log holds at pos.  It
// returns nil if the replica holds neither.
func (r *Replica) Held(d guid.GUID, pos int) *update.Update {
	for _, u := range r.tentative {
		if u.Digest() == d {
			return u
		}
	}
	if u := heldAt(r.recent, r.Log.Len(), pos); u != nil && u.Digest() == d {
		return u
	}
	return nil
}

// TentativeIDs appends to dst the IDs of the tentative updates the
// replica holds, in the timestamp order TentativeState applies them.
func (r *Replica) TentativeIDs(dst []update.UpdateID) []update.UpdateID {
	for _, u := range r.tentative {
		dst = append(dst, u.ID())
	}
	return dst
}

// AntiEntropy performs one bidirectional epidemic exchange between two
// replicas of the same object: each ships the tentative updates the
// other lacks, and the shorter committed log catches up (CatchUp) from
// a view of the longer one, which copies nothing.  It returns how many
// updates moved in total (a checkpoint counts as one move).
func AntiEntropy(a, b *Replica, now time.Duration) int {
	a.expire(now)
	b.expire(now)
	// Committed logs are prefixes of one final order, so the longer one
	// extends the shorter.
	if a.CommittedLen() < b.CommittedLen() {
		a, b = b, a
	}
	moved := b.CatchUp(a.view(), now)
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
