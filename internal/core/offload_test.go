package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/par"
	"oceanstore/internal/update"
	"oceanstore/internal/workload"
)

// TestSessionPendingSetsAreDropped: a session's write set for an object
// lives only while it has writes in flight there.  While one is
// unresolved, read-your-writes still refuses a secondary that has not
// seen it; once all resolve, nothing is left behind.
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
	// After each commit the object's set holds exactly the writes still
	// unresolved, and is gone with the last of them.
	left := make(map[guid.GUID]int)
	sess.OnCommit(func(obj guid.GUID, _ update.UpdateID) {
		left[obj]--
		if got := len(sess.pending[obj]); got != left[obj] {
			t.Errorf("after a commit %d writes are pending on the object, want %d", got, left[obj])
		}
		if _, kept := sess.pending[obj]; kept && left[obj] == 0 {
			t.Error("emptied write set left in the session")
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
	if len(sess.pending) != objects {
		t.Fatalf("%d write sets for %d objects with writes in flight", len(sess.pending), objects)
	}
	// Nothing has been delivered yet: no secondary holds the writes.
	for _, obj := range objs {
		ring, _ := p.Ring(obj)
		floor := sess.readFloor(obj)
		for _, sec := range ring.Secondaries() {
			if floor.accepts(sec.Rep) {
				t.Fatal("read-your-writes accepted a secondary missing an unresolved write")
			}
		}
	}
	p.Run(time.Minute)
	if len(sess.pending) != 0 {
		t.Fatalf("%d write sets left after every write resolved", len(sess.pending))
	}
	for _, obj := range objs {
		if left[obj] != 0 {
			t.Fatalf("%d writes never committed", left[obj])
		}
		if got, err := sess.Read(obj); err != nil || len(got) != writes {
			t.Fatalf("read after the writes resolved: %d bytes, err %v", len(got), err)
		}
	}
}

// TestSessionWriteStateIsDropped: a session's MonotonicWrites state for
// an object lives only while a write to it is in flight or queued.
// Under ReadYourWrites nothing queues and nothing is kept; under ACID
// writes queue behind each other, and once all resolve the session
// keeps no entry for the object, and the queue's backing array holds no
// update it released.
func TestSessionWriteStateIsDropped(t *testing.T) {
	for _, g := range []Guarantees{ReadYourWrites, ACID} {
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
		var backing []*update.Update
		if g&MonotonicWrites != 0 {
			q := sess.queued[obj]
			if len(q) != writes-1 || !sess.inflight[obj] {
				t.Fatalf("guarantees %b: %d writes queued behind one in flight (%v), want %d", g, len(q), sess.inflight[obj], writes-1)
			}
			backing = q[:cap(q)]
		}
		p.Run(time.Minute)
		if committed != writes {
			t.Fatalf("guarantees %b: %d/%d writes committed", g, committed, writes)
		}
		if len(sess.inflight) != 0 || len(sess.queued) != 0 {
			t.Fatalf("guarantees %b: %d in-flight and %d queue entries left after every write resolved", g, len(sess.inflight), len(sess.queued))
		}
		for i, u := range backing {
			if u != nil {
				t.Fatalf("guarantees %b: released write %d still referenced from the queue", g, i)
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
