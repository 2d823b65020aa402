package update

import (
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
)

// LogEntry records one applied (or aborted) update: "the update itself
// is logged regardless of whether it commits or aborts" (§4.4.1).
type LogEntry struct {
	Update  *Update
	Outcome Outcome
	At      time.Duration
}

// Log is an append-only per-object update log.  Powerful clients can
// replay it to regenerate and re-encrypt an object in whole (§4.4.2).
// A capped log (SetCap) retains only a suffix window of entries plus
// running commit/abort tallies; Start reports how many entries were
// evicted from the front.
//
// The log keeps no index by update ID and does not deduplicate: its one
// writer, epidemic.Replica.Commit, has already turned a redelivered
// commit away by the time it appends.
type Log struct {
	entries []LogEntry
	start   int // entries evicted from the front (capped logs)
	cap     int // 0 = unbounded
	// running tallies survive eviction.
	commits, aborts int
}

// NewLog creates an empty log.
func NewLog() *Log { return &Log{} }

// SetCap bounds the retained entry window.  0 restores unbounded
// retention (already-evicted entries stay gone).
func (l *Log) SetCap(n int) { l.cap = n }

// Start reports how many entries have been evicted from the front: the
// retained window covers log positions [Start, Start+len(Entries)).
func (l *Log) Start() int { return l.start }

// Rebase clears the retained window and restarts the log at position
// start — a checkpoint transfer: entries before start exist only as
// applied state elsewhere.  Running tallies are kept.
func (l *Log) Rebase(start int) {
	for i := range l.entries {
		l.entries[i] = LogEntry{}
	}
	l.entries = l.entries[:0]
	l.start = start
}

// Clone returns an independent copy: retained window, position, cap,
// and running tallies.
func (l *Log) Clone() *Log {
	return &Log{
		entries: append([]LogEntry(nil), l.entries...),
		start:   l.start,
		cap:     l.cap,
		commits: l.commits,
		aborts:  l.aborts,
	}
}

// Append records an update outcome.  The caller appends each update
// once (epidemic propagation redelivers; see Log).
func (l *Log) Append(u *Update, o Outcome, at time.Duration) {
	l.entries = append(l.entries, LogEntry{Update: u, Outcome: o, At: at})
	if o.Committed {
		l.commits++
	} else {
		l.aborts++
	}
	if l.cap > 0 && len(l.entries) >= 2*l.cap {
		drop := len(l.entries) - l.cap
		n := copy(l.entries, l.entries[drop:])
		for i := n; i < len(l.entries); i++ {
			l.entries[i] = LogEntry{}
		}
		l.entries = l.entries[:n]
		l.start += drop
	}
}

// Len returns the number of entries ever appended (including evicted).
func (l *Log) Len() int { return l.start + len(l.entries) }

// Entries returns a copy of the retained window in order (the full log
// when uncapped).
func (l *Log) Entries() []LogEntry {
	return append([]LogEntry(nil), l.entries...)
}

// Commits returns only the committed entries, the object's modification
// history (§4.5 "interfaces will exist to examine modification
// history").
func (l *Log) Commits() []LogEntry {
	var out []LogEntry
	for _, e := range l.entries {
		if e.Outcome.Committed {
			out = append(out, e)
		}
	}
	return out
}

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
