package core

import (
	"slices"
	"sort"
	"testing"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/replica"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

// monotonicWorld is one object with three secondaries, a, b and c,
// nearest first from a reader that holds the read key.  Gossip is off,
// so a tentative copy stays on the secondaries a test hands it to.
type monotonicWorld struct {
	p       *Pool
	ring    *replica.Ring
	obj     guid.GUID
	writer  *Client
	reader  *Client
	a, b, c *replica.Secondary
	seq     uint64
}

func newMonotonicWorld(t *testing.T) *monotonicWorld {
	t.Helper()
	cfg := DefaultPoolConfig()
	cfg.Nodes = 24
	cfg.BlockSize = 64
	cfg.Ring.GossipInterval = 0
	p := NewPool(31, cfg)
	writer := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := writer.Create("monotonic", nil)
	if err != nil {
		t.Fatal(err)
	}
	reader := p.NewClient(21, crypt.NewSigner(p.K.Rand()))
	if err := writer.GrantRead(obj, reader); err != nil {
		t.Fatal(err)
	}
	ring, _ := p.Ring(obj)
	var free []simnet.NodeID
	for n := simnet.NodeID(0); n < simnet.NodeID(cfg.Nodes); n++ {
		if n != reader.Node && !ring.IsPrimary(n) {
			free = append(free, n)
		}
	}
	sort.SliceStable(free, func(i, j int) bool {
		return p.Net.Latency(reader.Node, free[i]) < p.Net.Latency(reader.Node, free[j])
	})
	var secs [3]*replica.Secondary
	for i := range secs {
		if err := p.AddReplica(obj, free[i]); err != nil {
			t.Fatal(err)
		}
		secs[i], _ = ring.Secondary(free[i])
	}
	p.Run(time.Second)
	return &monotonicWorld{p: p, ring: ring, obj: obj, writer: writer, reader: reader, a: secs[0], b: secs[1], c: secs[2]}
}

// tentative hands the writer's next update, an append of payload, to
// the given secondaries only; the primary tier never sees it.
func (w *monotonicWorld) tentative(t *testing.T, payload string, to ...*replica.Secondary) *update.Update {
	t.Helper()
	bc, _ := w.writer.Keys.Cipher(w.obj)
	ed, err := object.EditorWith(w.ring.CommittedVersion(), bc)
	if err != nil {
		t.Fatal(err)
	}
	w.seq++
	u := update.NewUnconditional(w.obj, update.BlockOps(ed.Append([]byte(payload))))
	u.ClientID, u.Seq, u.Timestamp = w.writer.Signer.GUID(), w.seq, w.p.K.Now()
	for _, sec := range to {
		w.ring.HandleTentative(sec.Node, u)
	}
	return u
}

// read reads through s locally or over the network.
func (w *monotonicWorld) read(t *testing.T, s *Session, remote bool) string {
	t.Helper()
	if !remote {
		data, err := s.Read(w.obj)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	var data []byte
	var err error
	done := false
	s.RemoteRead(w.obj, 10*time.Second, func(d []byte, e error) { data, err, done = d, e, true })
	w.p.Run(10 * time.Second)
	if !done || err != nil {
		t.Fatalf("remote read: done %v, err %v", done, err)
	}
	return string(data)
}

// TestMonotonicReadsNeverGoBack: the writer's seq 1 ("A") reaches a and
// c, its seq 2 ("B") reaches all three.  A MonotonicReads session reads
// "AB" from a; with a down, b holds seq 2 but not seq 1, so only c may
// serve the next read.  A floor that keeps each client's highest Seq
// takes b and reads "B".
func TestMonotonicReadsNeverGoBack(t *testing.T) {
	for _, remote := range []bool{false, true} {
		name := "local"
		if remote {
			name = "remote"
		}
		t.Run(name, func(t *testing.T) {
			w := newMonotonicWorld(t)
			w.tentative(t, "A", w.a, w.c)
			w.tentative(t, "B", w.a, w.b, w.c)
			s := w.reader.NewSession(MonotonicReads)
			if got := w.read(t, s, remote); got != "AB" || w.a.Reads != 1 {
				t.Fatalf("first read %q with %d reads at a, want \"AB\" from a", got, w.a.Reads)
			}
			w.p.Net.Crash(w.a.Node)
			if got := w.read(t, s, remote); got != "AB" {
				t.Fatalf("second read %q after \"AB\": the session went backwards", got)
			}
			if w.b.Reads != 0 || w.c.Reads != 1 {
				t.Fatalf("second read served by b %d times, c %d times, want c once", w.b.Reads, w.c.Reads)
			}
		})
	}
}

// TestMonotonicReadsFallBackToThePrimaryTier pins observe's fallback: a
// tentative update the session read that never commits, once no live
// secondary holds it, sends the read to the primary tier, whose state
// lacks it, and leaves the session's floor.
func TestMonotonicReadsFallBackToThePrimaryTier(t *testing.T) {
	w := newMonotonicWorld(t)
	u := w.tentative(t, "A", w.a)
	s := w.reader.NewSession(MonotonicReads)
	if got := w.read(t, s, false); got != "A" {
		t.Fatalf("first read %q, want the tentative \"A\"", got)
	}
	if st := s.objs[w.obj]; st.committed != w.a.Rep.CommittedLen() || !slices.Equal(st.read, []update.UpdateID{u.ID()}) {
		t.Fatalf("floor (%d, %v), want (%d, [%v])", st.committed, st.read, w.a.Rep.CommittedLen(), u.ID())
	}
	w.p.Net.Crash(w.a.Node)
	rep, err := s.pickReplica(w.obj)
	if err != nil {
		t.Fatal(err)
	}
	if rep != w.ring.PrimaryState() {
		t.Fatal("a secondary without the update read served the session")
	}
	data, err := s.Read(w.obj)
	if err != nil || string(data) != "" {
		t.Fatalf("primary-tier read %q (err %v), want the committed \"\"", data, err)
	}
	st := s.objs[w.obj]
	if st.read != nil || st.committed != rep.CommittedLen() {
		t.Fatalf("floor (%d, %v) after the primary-tier read, want (%d, none)", st.committed, st.read, rep.CommittedLen())
	}
	// With the update out of the floor, b and c serve again.
	if rep, _ := s.pickReplica(w.obj); rep != w.b.Rep {
		t.Fatal("the nearest live secondary does not serve once the floor drops the update")
	}
}
