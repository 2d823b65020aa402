package update

import (
	"testing"
	"unsafe"

	"oceanstore/internal/guid"
)

func logEntryUpdate(i int) *Update {
	u := NewUnconditional(guid.Zero, nil)
	u.ClientID = guid.FromData([]byte("log-client"))
	u.Seq = uint64(i)
	return u
}

func TestLogTrimEvictsFront(t *testing.T) {
	l := &Log{}
	const total = 20
	for i := 0; i < total; i++ {
		committed := i%3 != 0
		l.Append(logEntryUpdate(i), Outcome{Committed: committed})
		if i == 9 || i == 15 {
			l.Trim(i - 3) // keep the last four
		}
	}
	if l.Len() != total {
		t.Fatalf("Len %d, want %d", l.Len(), total)
	}
	if l.Start() != 12 || len(l.Entries()) != 8 {
		t.Fatalf("window [%d,%d), want [12,20)", l.Start(), l.Start()+len(l.Entries()))
	}
	if e := l.At(15); e.ID().Seq != 15 || e.Outcome.Committed {
		t.Fatalf("At(15) = update %d committed %v, want update 15, aborted", e.ID().Seq, e.Outcome.Committed)
	}
	// Tallies survive eviction; the retained window does not double-count.
	c, a := l.Counts()
	if c+a != total {
		t.Fatalf("counts %d+%d, want %d total", c, a, total)
	}
	if a != 7 { // i%3==0 for i in [0,20): 0,3,6,9,12,15,18
		t.Fatalf("aborts %d, want 7", a)
	}
	// The retained window is the log's tail, in order.
	for i, e := range l.Entries() {
		if want := uint64(l.Start() + i); e.ID().Seq != want {
			t.Fatalf("retained entry %d is update %d, want %d", i, e.ID().Seq, want)
		}
	}
}

func TestLogRebase(t *testing.T) {
	l := &Log{}
	for i := 0; i < 5; i++ {
		l.Append(logEntryUpdate(i), Outcome{Committed: true})
	}
	window := []LogEntry{{id: logEntryUpdate(7).logID()}, {id: logEntryUpdate(8).logID()}}
	l.Rebase(7, window)
	window[0] = LogEntry{} // the log holds its own copy
	if l.Start() != 7 || len(l.Entries()) != 2 || l.Len() != 9 || l.Entries()[0].ID().Seq != 7 {
		t.Fatalf("after rebase: start %d, retained %d, len %d", l.Start(), len(l.Entries()), l.Len())
	}
	if c, a := l.Counts(); c != 5 || a != 0 {
		t.Fatalf("tallies %d+%d after rebase, want the 5 appends only", c, a)
	}
	l.Append(logEntryUpdate(100), Outcome{Committed: true})
	if es := l.Entries(); len(es) != 3 || es[2].ID().Seq != 100 {
		t.Fatalf("rebased log retains %d entries, want the window and the new one", len(es))
	}
	if l.Len() != 10 {
		t.Fatalf("Len %d after rebase+append, want 10", l.Len())
	}
}

// TestLogEntrySize: an entry is an ID record pointer and an outcome,
// 16 bytes on every replica for every retained position, and every log
// that appends an update points at the same record.  Holding it keeps
// an update within its 208-byte size class.
func TestLogEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(LogEntry{}); n != 16 {
		t.Fatalf("LogEntry is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(Update{}); n != 208 {
		t.Fatalf("Update is %d bytes, want 208", n)
	}
	u := logEntryUpdate(3)
	var a, b Log
	a.Append(u, Outcome{Committed: true})
	b.Append(u, Outcome{Committed: true})
	if a.At(0).id != b.At(0).id || a.At(0).ID() != u.ID() {
		t.Fatal("two logs of one update hold different ID records")
	}
}
