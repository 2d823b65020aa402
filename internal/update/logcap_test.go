package update

import (
	"testing"

	"oceanstore/internal/guid"
)

func logEntryUpdate(i int) *Update {
	u := NewUnconditional(guid.Zero, nil)
	u.ClientID = guid.FromData([]byte("log-client"))
	u.Seq = uint64(i)
	return u
}

func TestLogCapEvictsWindow(t *testing.T) {
	l := NewLog()
	l.SetCap(4)
	const total = 20
	for i := 0; i < total; i++ {
		committed := i%3 != 0
		l.Append(logEntryUpdate(i), Outcome{Committed: committed}, 0)
	}
	if l.Len() != total {
		t.Fatalf("Len %d, want %d", l.Len(), total)
	}
	if got := len(l.Entries()); got >= 2*4 {
		t.Fatalf("retained %d entries, cap 4 never evicted", got)
	}
	if l.Start()+len(l.Entries()) != total {
		t.Fatalf("window [%d,%d) does not end at %d", l.Start(), l.Start()+len(l.Entries()), total)
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
		if want := uint64(l.Start() + i); e.Update.Seq != want {
			t.Fatalf("retained entry %d is update %d, want %d", i, e.Update.Seq, want)
		}
	}
}

func TestLogRebase(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Append(logEntryUpdate(i), Outcome{Committed: true}, 0)
	}
	l.Rebase(9)
	if l.Start() != 9 || len(l.Entries()) != 0 || l.Len() != 9 {
		t.Fatalf("after rebase: start %d, retained %d, len %d", l.Start(), len(l.Entries()), l.Len())
	}
	if c, _ := l.Counts(); c != 5 {
		t.Fatalf("commit tally %d lost by rebase", c)
	}
	l.Append(logEntryUpdate(100), Outcome{Committed: true}, 0)
	if es := l.Entries(); len(es) != 1 || es[0].Update.Seq != 100 {
		t.Fatalf("rebased log retains %d entries, want just the new one", len(es))
	}
	if l.Len() != 10 {
		t.Fatalf("Len %d after rebase+append, want 10", l.Len())
	}
}

func TestLogClone(t *testing.T) {
	l := NewLog()
	l.SetCap(8)
	for i := 0; i < 6; i++ {
		l.Append(logEntryUpdate(i), Outcome{Committed: i%2 == 0}, 0)
	}
	c := l.Clone()
	if c.Len() != l.Len() || c.Start() != l.Start() {
		t.Fatal("clone shape differs")
	}
	cc, ca := c.Counts()
	lc, la := l.Counts()
	if cc != lc || ca != la {
		t.Fatal("clone tallies differ")
	}
	// Independence: appending to the clone leaves the original alone.
	c.Append(logEntryUpdate(50), Outcome{Committed: true}, 0)
	if l.Len() != 6 || len(l.Entries()) != 6 {
		t.Fatal("original saw the clone's append")
	}
	if c.Len() != 7 {
		t.Fatal("clone length should have diverged")
	}
}
