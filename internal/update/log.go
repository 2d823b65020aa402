package update

import (
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
)

// LogEntry records one applied (or aborted) update: "the update itself
// is logged regardless of whether it commits or aborts" (§4.4.1).  It
// holds what the log's readers read past a replica's last few
// positions — the update's ID, for dedup and the prefix check, and the
// outcome a duplicate commit is answered with — and nothing else: 16
// bytes, one per retained entry on every replica.  The ID is a pointer
// to one record per update, made when the update is first logged and
// shared by every replica that logs it.  The update itself is kept
// beside the log, for the positions a catch-up can still replay
// (epidemic.Reach).
type LogEntry struct {
	id      *UpdateID
	Outcome Outcome
}

// ID returns the logged update's ID.
func (e LogEntry) ID() UpdateID { return *e.id }

// EntryWireSize is a log entry's bytes on the wire without its update:
// the update's ID and its outcome.
const EntryWireSize = guid.Size + 8 + 1 + 4

// Log is an append-only per-object update log: the serialisation of
// an object's updates, by ID and outcome.  It retains a suffix window
// of entries plus running commit/abort tallies: its owner evicts from
// the front (Trim), and Start reports how many entries have gone.
//
// The log keeps no index by update ID and does not deduplicate: its one
// writer, epidemic.Replica.Commit, appends a commit only at the log
// position the primary tier logged it at, which is the log end, so a
// redelivered commit (below the end) and one that arrived ahead of a
// missed predecessor (past it) never reach Append.  The zero Log is
// empty and ready to use.
type Log struct {
	entries []LogEntry
	start   int // entries evicted from the front
	// running tallies survive eviction.
	commits, aborts int
}

// Start reports how many entries have been evicted from the front: the
// retained window covers log positions [Start, Len).
func (l *Log) Start() int { return l.start }

// At returns the entry at log position pos, which must lie in the
// retained window.
func (l *Log) At(pos int) LogEntry { return l.entries[pos-l.start] }

// Trim evicts the retained entries before log position pos.
func (l *Log) Trim(pos int) {
	drop := pos - l.start
	n := copy(l.entries, l.entries[drop:])
	clear(l.entries[n:])
	l.entries = l.entries[:n]
	l.start = pos
}

// Rebase replaces the retained window with a copy of window, starting
// at log position start — a checkpoint transfer: entries before start
// exist only as applied state elsewhere.  The copied entries are not
// appends, so running tallies are kept as they were.
func (l *Log) Rebase(start int, window []LogEntry) {
	clear(l.entries)
	l.entries = append(l.entries[:0], window...)
	l.start = start
}

// Append records an update outcome.  The caller appends each update
// once (epidemic propagation redelivers; see Log).
func (l *Log) Append(u *Update, o Outcome) {
	l.entries = append(l.entries, LogEntry{id: u.logID(), Outcome: o})
	if o.Committed {
		l.commits++
	} else {
		l.aborts++
	}
}

// Len returns the number of entries ever appended (including evicted).
func (l *Log) Len() int { return l.start + len(l.entries) }

// Entries returns the retained window in order.  The slice is the
// log's own: read it before the log next changes, and copy what must
// outlive that.
func (l *Log) Entries() []LogEntry { return l.entries }

// Counts tallies committed and aborted entries — the split the
// observability layer reports per replica.  Running tallies, so
// evicted entries stay counted.
func (l *Log) Counts() (commits, aborts int) { return l.commits, l.aborts }

// ---- Convenience constructors for common update shapes ----

// NewUnconditional builds an update whose single guard always fires.
func NewUnconditional(obj guid.GUID, actions []Action) *Update {
	return &Update{
		Object: obj,
		Guards: []Guard{{Preds: []Predicate{{Kind: PredAlways}}, Actions: actions}},
	}
}

// NewVersionGuarded builds the optimistic-concurrency shape: the guard
// fires only if the object is still at the assumed version — the
// transactional read-set check of §4.4.1 in its simplest form.
func NewVersionGuarded(obj guid.GUID, assumed uint64, actions []Action) *Update {
	return &Update{
		Object: obj,
		Guards: []Guard{{
			Preds:   []Predicate{{Kind: PredCompareVersion, Cmp: CmpEQ, Version: assumed}},
			Actions: actions,
		}},
	}
}

// BlockOps wraps primitive object ops as actions.
func BlockOps(ops ...object.Op) []Action {
	out := make([]Action, len(ops))
	for i, op := range ops {
		out[i] = Action{Kind: ActBlockOp, Op: op}
	}
	return out
}
