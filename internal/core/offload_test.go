package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/par"
	"oceanstore/internal/replica"
	"oceanstore/internal/update"
	"oceanstore/internal/workload"
)

// listed returns the session's writes to obj, in list order.
func listed(s *Session, obj guid.GUID) []*write {
	var ws []*write
	for w := s.objs[obj].first; w != nil; w = w.next {
		ws = append(ws, w)
	}
	return ws
}

// unresolved counts the session's writes to obj still awaiting their
// outcome.
func unresolved(s *Session, obj guid.GUID) int {
	n := 0
	for _, w := range listed(s, obj) {
		if !w.resolved {
			n++
		}
	}
	return n
}

// waiting reads how many completion callbacks a ring holds.  The ring
// exports nothing that answers this, so the leak tests read its field.
func waiting(ring *replica.Ring) int {
	return reflect.ValueOf(ring).Elem().FieldByName("waiters").Len()
}

// TestSessionPendingSetsAreDropped: a session keeps an object's writes
// only while they are unresolved.  While one is unresolved,
// read-your-writes still refuses a secondary that has not seen it; once
// all resolve, the object keeps its read floor and no write.
func TestSessionPendingSetsAreDropped(t *testing.T) {
	p := smallPool(61)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	const objects, writes = 3, 4
	objs := make([]guid.GUID, objects)
	for i := range objs {
		obj, err := alice.Create(string(rune('a'+i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		p.AddReplica(obj, 10)
		p.AddReplica(obj, 11)
		objs[i] = obj
	}
	sess := alice.NewSession(ReadYourWrites)
	// After each commit the object holds exactly the writes still
	// unresolved.
	left := make(map[guid.GUID]int)
	sess.OnCommit(func(obj guid.GUID, _ update.UpdateID) {
		left[obj]--
		if got := unresolved(sess, obj); got != left[obj] {
			t.Errorf("after a commit %d writes are pending on the object, want %d", got, left[obj])
		}
	})
	for _, obj := range objs {
		for w := 0; w < writes; w++ {
			if _, err := sess.Append(obj, []byte{byte(w)}); err != nil {
				t.Fatal(err)
			}
			left[obj]++
		}
	}
	if len(sess.objs) != objects {
		t.Fatalf("%d entries for %d objects with writes in flight", len(sess.objs), objects)
	}
	// Nothing has been delivered yet: no secondary holds the writes.
	for _, obj := range objs {
		ring, _ := p.Ring(obj)
		st := sess.objs[obj]
		for _, sec := range ring.Secondaries() {
			if sess.accepts(st, sec.Rep) {
				t.Fatal("read-your-writes accepted a secondary missing an unresolved write")
			}
		}
	}
	p.Run(time.Minute)
	for _, obj := range objs {
		if left[obj] != 0 {
			t.Fatalf("%d writes never committed", left[obj])
		}
		if st, ok := sess.objs[obj]; !ok || st.first != nil || st.committed == 0 {
			t.Fatalf("after every write resolved the object's entry is %+v, want a floor and no write", st)
		}
		if got, err := sess.Read(obj); err != nil || len(got) != writes {
			t.Fatalf("read after the writes resolved: %d bytes, err %v", len(got), err)
		}
	}
}

// TestOutOfOrderResolution: without MonotonicWrites a later write can
// resolve first.  It leaves its object's list from the middle, and the
// earlier write stays listed until it commits in turn.
func TestOutOfOrderResolution(t *testing.T) {
	p := smallPool(63)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("ooo", nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(ReadYourWrites)
	var order []update.UpdateID
	sess.OnCommit(func(_ guid.GUID, id update.UpdateID) { order = append(order, id) })
	// The client is cut off: its first write waits for the byz client's
	// retransmission, which comes after the second write has committed.
	p.Net.SetPartition(alice.Node, 1)
	early, err := sess.Append(obj, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	p.Run(10 * time.Second)
	p.Net.ClearPartitions()
	late, err := sess.Append(obj, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	p.Run(1500 * time.Millisecond)
	if ws := listed(sess, obj); len(order) != 1 || order[0] != late || len(ws) != 1 || ws[0].u.ID() != early {
		t.Fatalf("after the later write committed: commits %v, %d listed, want [%v] and the earlier write", order, len(ws), late)
	}
	p.Run(time.Minute)
	if len(order) != 2 || order[1] != early || sess.objs[obj].first != nil {
		t.Fatalf("commits %v, want the earlier write second and nothing listed", order)
	}
}

// TestSessionWriteStateIsDropped: a session's write state for an object
// lives only while a write to it is in flight or queued.  Under
// ReadYourWrites every write is released at once; under MonotonicWrites
// and ACID writes queue behind one in flight.  Once all resolve the
// object keeps no write — and no entry at all without a read floor —
// and the list's backing array holds no write it released.
func TestSessionWriteStateIsDropped(t *testing.T) {
	for _, g := range []Guarantees{ReadYourWrites, MonotonicWrites, ACID} {
		p := smallPool(62)
		alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
		obj, err := alice.Create("w", nil)
		if err != nil {
			t.Fatal(err)
		}
		p.AddReplica(obj, 10)
		sess := alice.NewSession(g)
		committed := 0
		sess.OnCommit(func(guid.GUID, update.UpdateID) { committed++ })
		const writes = 4
		for w := 0; w < writes; w++ {
			if _, err := sess.Append(obj, []byte{byte(w)}); err != nil {
				t.Fatal(err)
			}
		}
		ring, _ := p.Ring(obj)
		released := writes
		if g&MonotonicWrites != 0 {
			released = 1
		}
		ws := listed(sess, obj)
		if len(ws) != writes || waiting(ring) != released {
			t.Fatalf("guarantees %b: %d writes listed, %d released, want %d and %d", g, len(ws), waiting(ring), writes, released)
		}
		p.Run(time.Minute)
		if committed != writes {
			t.Fatalf("guarantees %b: %d/%d writes committed", g, committed, writes)
		}
		st, ok := sess.objs[obj]
		if g&ReadYourWrites == 0 && ok {
			t.Fatalf("guarantees %b: the object's entry outlived its writes: %+v", g, st)
		}
		if st.first != nil {
			t.Fatalf("guarantees %b: writes left listed after every write resolved", g)
		}
		for i, w := range ws {
			if !w.resolved || w.next != nil {
				t.Fatalf("guarantees %b: released write %d still links to another", g, i)
			}
		}
	}
}

// TestSoakIdenticalWithAndWithoutHelper: one gate over both signing
// paths.  A fault-free 1k-node soak dumps the same bytes with one
// processor (signatures computed inline in Submit) and with four (on
// par's helper, joined by the tier's CheckWrite), and at drain every
// started signature has been joined.
func TestSoakIdenticalWithAndWithoutHelper(t *testing.T) {
	type offloaded struct{ started, inline, unjoined int64 }
	run := func(procs int) ([]byte, offloaded) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		before := par.Stats()
		cfg := DefaultSoakConfig(1000)
		w, err := NewSoakWorld(5, cfg)
		if err != nil {
			t.Fatalf("NewSoakWorld: %v", err)
		}
		reg := obs.NewRegistry()
		w.Pool.Instrument(reg, nil)
		eng := workload.NewEngine(w.Pool.K, workload.EngineConfig{
			Clients:       cfg.Clients,
			Ops:           1500,
			Mix:           workload.Mix{WriteFrac: 0.4, CreateFrac: 0.02},
			Objects:       cfg.Objects,
			ZipfS:         1.1,
			MeanWriteSize: 128,
			ClosedLoop:    true,
			MeanThink:     200 * time.Millisecond,
			RetryBackoff:  time.Second,
		}, w)
		eng.Instrument(reg)
		eng.Start()
		w.Pool.K.RunWhile(func() bool { return !eng.Done() })
		if st := eng.Stats(); !eng.Done() || st.Failed != 0 {
			t.Fatalf("procs=%d: soak did not drain cleanly: %+v", procs, st)
		}
		var buf bytes.Buffer
		if err := reg.WriteBench(&buf, "Soak"); err != nil {
			t.Fatalf("WriteBench: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		after := par.Stats()
		started := after.Started - before.Started
		joins := (after.Ready + after.Taken + after.Waited) - (before.Ready + before.Taken + before.Waited)
		return buf.Bytes(), offloaded{
			started:  started,
			inline:   after.Inline - before.Inline,
			unjoined: started - joins,
		}
	}
	inline, st1 := run(1)
	helped, st4 := run(4)
	if !bytes.Equal(inline, helped) {
		t.Fatalf("metrics dumps differ between GOMAXPROCS 1 and 4 (%d vs %d bytes)", len(inline), len(helped))
	}
	if st1.started == 0 || st1.inline != st1.started {
		t.Fatalf("one processor: %d signatures started, %d inline", st1.started, st1.inline)
	}
	if st4.started != st1.started || st4.inline == st4.started {
		t.Fatalf("four processors: %d signatures started (%d at one), %d inline — the helper never ran",
			st4.started, st1.started, st4.inline)
	}
	if st1.unjoined != 0 || st4.unjoined != 0 {
		t.Fatalf("signatures never joined at drain: %d at one processor, %d at four", st1.unjoined, st4.unjoined)
	}
}
