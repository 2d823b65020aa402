package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"oceanstore/internal/epidemic"
	"oceanstore/internal/obs"
	"oceanstore/internal/workload"
)

// runSoakWorld drives a small engine-over-world run to completion and
// returns the engine stats plus the metrics dump.
func runSoakWorld(t *testing.T, seed int64, ops int) (workload.EngineStats, []byte) {
	t.Helper()
	cfg := DefaultSoakConfig(48)
	cfg.Objects = 8
	cfg.Clients = 6
	cfg.MaxInFlight = 16
	w, err := NewSoakWorld(seed, cfg)
	if err != nil {
		t.Fatalf("NewSoakWorld: %v", err)
	}
	reg := obs.NewRegistry()
	w.Pool.Instrument(reg, nil)
	eng := workload.NewEngine(w.Pool.K, workload.EngineConfig{
		Clients:       cfg.Clients,
		Ops:           ops,
		Mix:           workload.Mix{WriteFrac: 0.3, CreateFrac: 0.02},
		Objects:       cfg.Objects,
		ZipfS:         1.1,
		MeanWriteSize: 128,
		ClosedLoop:    true,
		MeanThink:     200 * time.Millisecond,
		RetryBackoff:  time.Second,
	}, w)
	eng.Instrument(reg)
	w.StartChurn(30*time.Second, 10*time.Second)
	eng.Start()
	w.Pool.K.RunWhile(func() bool { return !eng.Done() })
	if !eng.Done() {
		t.Fatalf("engine did not drain: %+v", eng.Stats())
	}
	var buf bytes.Buffer
	if err := reg.WriteBench(&buf, "Soak"); err != nil {
		t.Fatalf("WriteBench: %v", err)
	}
	return eng.Stats(), buf.Bytes()
}

// TestSoakWorldSmoke checks the closed loop drains with the accounting
// identities intact: every op is issued exactly once, every issued op
// resolves, and most traffic succeeds despite churn.
func TestSoakWorldSmoke(t *testing.T) {
	st, _ := runSoakWorld(t, 7, 400)
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after drain", st.InFlight)
	}
	if st.OK+st.Failed != st.Issued {
		t.Fatalf("accounting: OK %d + Failed %d != Issued %d", st.OK, st.Failed, st.Issued)
	}
	if st.Issued < 400 {
		t.Fatalf("Issued = %d, want >= 400", st.Issued)
	}
	if st.OK < st.Issued*3/4 {
		t.Fatalf("success rate too low: %d OK of %d issued", st.OK, st.Issued)
	}
	if st.Creates == 0 {
		t.Fatalf("mix with CreateFrac produced no creates")
	}
}

// TestSoakWorldDeterminism: the metrics dump is a pure function of the
// seed — byte-identical across runs.
func TestSoakWorldDeterminism(t *testing.T) {
	st1, m1 := runSoakWorld(t, 42, 300)
	st2, m2 := runSoakWorld(t, 42, 300)
	if st1 != st2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", st1, st2)
	}
	if !bytes.Equal(m1, m2) {
		t.Fatalf("metrics dumps diverged (%d vs %d bytes)", len(m1), len(m2))
	}
	_, m3 := runSoakWorld(t, 43, 300)
	if bytes.Equal(m1, m3) {
		t.Fatalf("different seeds produced identical metrics dumps")
	}
}

// TestSoakWorldBackpressure: with a tiny in-flight cap and no think
// time, the world sheds load and the engine recovers via retries.
func TestSoakWorldBackpressure(t *testing.T) {
	cfg := DefaultSoakConfig(16)
	cfg.Objects = 4
	cfg.Clients = 8
	cfg.MaxInFlight = 1
	w, err := NewSoakWorld(11, cfg)
	if err != nil {
		t.Fatalf("NewSoakWorld: %v", err)
	}
	eng := workload.NewEngine(w.Pool.K, workload.EngineConfig{
		Clients:      cfg.Clients,
		Ops:          200,
		Mix:          workload.Mix{WriteFrac: 1.0},
		Objects:      cfg.Objects,
		ZipfS:        1.01,
		ClosedLoop:   true,
		RetryBackoff: 500 * time.Millisecond,
	}, w)
	eng.Start()
	w.Pool.K.RunWhile(func() bool { return !eng.Done() })
	st := eng.Stats()
	if st.Shed == 0 {
		t.Fatalf("MaxInFlight=1 with 8 clients shed nothing: %+v", st)
	}
	if st.OK+st.Failed != st.Issued {
		t.Fatalf("accounting: OK %d + Failed %d != Issued %d", st.OK, st.Failed, st.Issued)
	}
	if st.OK < 150 {
		t.Fatalf("too few successes under backpressure: %+v", st)
	}
}

// TestSoakWorldShedsPerObject: backpressure is per object.  One
// object's tier is partitioned away from every client, so its writes
// wedge; once it holds MaxInFlight of them it sheds its own next write,
// but every write to the other object is admitted and commits, and a
// create is not shed.  Under one world-wide count the wedged writes
// held every slot and the other object's writes were shed too.
func TestSoakWorldShedsPerObject(t *testing.T) {
	const limit = 4
	cfg := DefaultSoakConfig(64)
	cfg.Objects = 2
	cfg.MaxInFlight = limit
	w, err := NewSoakWorld(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wedged, _ := w.Pool.Ring(w.objects[0])
	healthy, _ := w.Pool.Ring(w.objects[1])
	for _, n := range wedged.PrimaryNodes() {
		if slices.Contains(healthy.PrimaryNodes(), n) {
			t.Fatalf("the two tiers share node %d", n)
		}
		w.Pool.Net.SetPartition(n, 1)
	}
	client := slices.IndexFunc(w.sessions, func(s *Session) bool {
		return !slices.Contains(wedged.PrimaryNodes(), s.c.Node)
	})
	write := func(obj int, done func(bool)) error {
		return w.Do(workload.Request{Client: client, Kind: workload.OpWrite, Object: obj, Size: 16}, done)
	}
	for i := 0; i < limit; i++ {
		if err := write(0, func(bool) {}); err != nil {
			t.Fatalf("write %d to the wedged object: %v", i, err)
		}
	}
	if err := write(0, func(bool) {}); err != workload.ErrOverloaded {
		t.Fatalf("write past the wedged object's cap: %v, want ErrOverloaded", err)
	}
	committed := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < limit; i++ {
			if err := write(1, func(ok bool) {
				if ok {
					committed++
				}
			}); err != nil {
				t.Fatalf("round %d, write %d to the healthy object: %v", round, i, err)
			}
		}
		w.Pool.K.RunFor(20 * time.Second)
	}
	if committed != 3*limit {
		t.Fatalf("%d of the healthy object's %d writes committed", committed, 3*limit)
	}
	created := false
	if err := w.Do(workload.Request{Client: client, Kind: workload.OpCreate}, func(ok bool) { created = ok }); err != nil || !created {
		t.Fatalf("create beside the wedged object: err %v, created %v", err, created)
	}
	if got := w.InFlight(); got != limit {
		t.Fatalf("InFlight = %d, want the wedged object's %d", got, limit)
	}
}

// TestSoakWorldReportsFailuresPerObject: with one of two objects'
// tiers cut off, only that object's writes fail, and Failures has one
// line, for it, with its count and the virtual times of its first and
// last failure — each write's timeout after it was sent.
func TestSoakWorldReportsFailuresPerObject(t *testing.T) {
	cfg := DefaultSoakConfig(64)
	cfg.Objects = 2
	w, err := NewSoakWorld(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Failures(); len(got) != 0 {
		t.Fatalf("before any write: %q", got)
	}
	wedged, _ := w.Pool.Ring(w.objects[0])
	healthy, _ := w.Pool.Ring(w.objects[1])
	for _, n := range wedged.PrimaryNodes() {
		if slices.Contains(healthy.PrimaryNodes(), n) {
			t.Fatalf("the two tiers share node %d", n)
		}
		w.Pool.Net.SetPartition(n, 1)
	}
	client := slices.IndexFunc(w.sessions, func(s *Session) bool {
		return !slices.Contains(wedged.PrimaryNodes(), s.c.Node)
	})
	failed, committed := 0, 0
	sentAt := []time.Duration{}
	for i := 0; i < 3; i++ {
		sentAt = append(sentAt, w.Pool.K.Now())
		for obj := 0; obj < 2; obj++ {
			if err := w.Do(workload.Request{Client: client, Kind: workload.OpWrite, Object: obj, Size: 16}, func(ok bool) {
				if ok {
					committed++
				} else {
					failed++
				}
			}); err != nil {
				t.Fatalf("write %d to object %d: %v", i, obj, err)
			}
		}
		w.Pool.K.RunFor(10 * time.Second)
	}
	w.Pool.K.RunFor(soakWriteTimeout)
	if failed != 3 || committed != 3 {
		t.Fatalf("%d writes failed and %d committed, want 3 and 3", failed, committed)
	}
	want := fmt.Sprintf("object %s: 3 writes failed, first at %v, last at %v",
		w.objects[0].Short(), sentAt[0]+soakWriteTimeout, sentAt[2]+soakWriteTimeout)
	if got := w.Failures(); len(got) != 1 || got[0] != want {
		t.Fatalf("failures %q, want [%q]", got, want)
	}
}

// TestSoakWorldGrowth: nodes added mid-run join as secondaries.
func TestSoakWorldGrowth(t *testing.T) {
	cfg := DefaultSoakConfig(16)
	cfg.Objects = 4
	cfg.Clients = 2
	w, err := NewSoakWorld(3, cfg)
	if err != nil {
		t.Fatalf("NewSoakWorld: %v", err)
	}
	before := 0
	for _, obj := range w.Objects() {
		ring, _ := w.Pool.Ring(obj)
		before += len(ring.Secondaries())
	}
	w.GrowAt(time.Second, 8)
	w.Pool.Run(2 * time.Second)
	if w.Pool.Net.Len() != 24 {
		t.Fatalf("Net.Len() = %d after growth, want 24", w.Pool.Net.Len())
	}
	after := 0
	for _, obj := range w.Objects() {
		ring, _ := w.Pool.Ring(obj)
		after += len(ring.Secondaries())
	}
	if after <= before {
		t.Fatalf("grown nodes joined no rings: %d -> %d secondaries", before, after)
	}
}

// TestTentativeExpiryCoversAbandonedWrites pins the relation the epidemic
// layer's expiry bound rests on: a tentative update outlives the session
// write timeout by two gossip periods, so every copy of a write still in
// flight has either committed or been abandoned when expiry drops it.
func TestTentativeExpiryCoversAbandonedWrites(t *testing.T) {
	if got := soakWriteTimeout + 2*soakGossipInterval; got != epidemic.TentativeExpire {
		t.Fatalf("write timeout + 2 gossip periods = %v, tentative expiry %v", got, epidemic.TentativeExpire)
	}
}

// TestSoakHeapPerWrite bounds what a committed write leaves behind.  One
// 1000-node soak in the steady-10k shape runs for n and for 3n
// operations at the same seed; at the end of each, with its world still
// reachable, a forced GC leaves only live heap, and the slope between
// the two readings is the heap retained per additional committed write.
// It was 5488 B at the parent of PR 25, where every executed request
// kept its agreement slot for 64 executions and its record for 512 and
// every (client, tier) kept a pending map and a two-copy done-set, and
// 3213 B at the parent of PR 29, where every replica kept its committed
// stream in three windows plus an outcome per dedup entry, and 2391 B
// where each tier member and each replica kept a map beside its window
// repeating the window's IDs, and each log entry a timestamp and a
// result GUID, and 1642 B where every (client node, tier) pair a write
// used kept its agreement client state, reply route and done-set for
// the run and every replica kept each commit's whole update, and 1158 B
// where each primary tier also kept a done index of its clients'
// resolved requests; it is 1105 B since, and the bound is that plus
// 25 %.
func TestSoakHeapPerWrite(t *testing.T) {
	const n, bound = 5000, 1105 * 1.25
	live := func(ops int) (heap int64, writes int) {
		cfg := DefaultSoakConfig(1000)
		w, err := NewSoakWorld(1, cfg)
		if err != nil {
			t.Fatalf("NewSoakWorld: %v", err)
		}
		eng := workload.NewEngine(w.Pool.K, workload.EngineConfig{
			Clients:       cfg.Clients,
			Ops:           ops,
			Mix:           workload.Mix{WriteFrac: 0.3, CreateFrac: 0.01},
			Objects:       cfg.Objects,
			ZipfS:         1.1,
			MeanWriteSize: 256,
			ClosedLoop:    true,
			MeanThink:     200 * time.Millisecond,
			RetryBackoff:  time.Second,
		}, w)
		eng.Start()
		w.Pool.K.RunWhile(func() bool { return !eng.Done() })
		for _, obj := range w.Objects() {
			ring, _ := w.Pool.Ring(obj)
			c, _ := ring.PrimaryState().Log.Counts()
			writes += c
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(w)
		runtime.KeepAlive(eng)
		return int64(ms.HeapAlloc), writes
	}
	h1, w1 := live(n)
	h3, w3 := live(3 * n)
	if w3 <= w1 {
		t.Fatalf("%d writes committed in %d ops, %d in %d", w1, n, w3, 3*n)
	}
	perWrite := float64(h3-h1) / float64(w3-w1)
	t.Logf("live heap %.1f -> %.1f MB over %d -> %d committed writes: %.0f B/write", float64(h1)/(1<<20), float64(h3)/(1<<20), w1, w3, perWrite)
	if perWrite > bound {
		t.Fatalf("%.0f B of live heap per committed write, bound %.0f", perWrite, bound)
	}
}

// TestWorldHeapPerNode bounds what a world costs to hold before any
// traffic.  Two soak worlds in the default shape are built at 4 000 and
// 16 000 nodes; with each still reachable, a forced GC leaves only live
// heap, and the slope between the two readings is the heap per
// additional node.  Below 65 536 nodes the object count grows with the
// node count (one per 16), so this is per object as much as per node:
// every object puts its fragments, tier and tree handlers on many
// servers.  It was 1 796 B while a server's fragments sat in a map per
// archive and every (kind, instance) pair had its own demux slot in a
// map per node, and is 907 B with one sorted slice for each; the bound
// is that plus 25 %.
func TestWorldHeapPerNode(t *testing.T) {
	const small, large, bound = 4000, 16000, 907 * 1.25
	live := func(nodes int) int64 {
		w, err := NewSoakWorld(1, DefaultSoakConfig(nodes))
		if err != nil {
			t.Fatalf("NewSoakWorld: %v", err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(w)
		return int64(ms.HeapAlloc)
	}
	h1 := live(small)
	h4 := live(large)
	perNode := float64(h4-h1) / (large - small)
	t.Logf("live heap %.1f -> %.1f MB over %d -> %d nodes: %.0f B/node", float64(h1)/(1<<20), float64(h4)/(1<<20), small, large, perNode)
	if perNode > bound {
		t.Fatalf("%.0f B of live heap per node, bound %.0f", perNode, bound)
	}
}

// TestByzCommitsCatchUpAfterDrain puts the two "commit" counts side by
// side.  The session acknowledges a write when the primary tier
// EXECUTES it (replica.Ring.fireWaiter → Session.resolve, which runs
// the engine's done), while byz.commits is bumped when the CLIENT has
// gathered its f+1 reply quorum (byz.Group.clientHandle) — one network
// hop later.  So
// when the engine drains, the replies to the last few writes are still
// on the wire and the counter reads low; nothing skips it.  One more
// second of virtual time delivers them and the two agree.
func TestByzCommitsCatchUpAfterDrain(t *testing.T) {
	cfg := DefaultSoakConfig(48)
	cfg.Objects = 8
	cfg.Clients = 6
	cfg.MaxInFlight = 16
	w, err := NewSoakWorld(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	w.Pool.Instrument(reg, nil)
	eng := workload.NewEngine(w.Pool.K, workload.EngineConfig{
		Clients:       cfg.Clients,
		Ops:           400,
		Mix:           workload.Mix{WriteFrac: 0.5},
		Objects:       cfg.Objects,
		ZipfS:         1.1,
		MeanWriteSize: 128,
		ClosedLoop:    true,
		MeanThink:     200 * time.Millisecond,
		RetryBackoff:  time.Second,
	}, w)
	eng.Start()
	w.Pool.K.RunWhile(func() bool { return !eng.Done() })

	executed := int64(0) // writes the primary tiers serialised = writes acknowledged
	for _, obj := range w.Objects() {
		ring, _ := w.Pool.Ring(obj)
		c, a := ring.PrimaryState().Log.Counts()
		executed += int64(c + a)
	}
	atDrain := reg.CounterValue(obs.NodeWide, "byz", "commits")
	if executed == 0 || atDrain >= executed {
		t.Fatalf("at drain byz.commits = %d of %d executed writes; want it lagging (replies in flight)", atDrain, executed)
	}
	w.Pool.K.RunFor(time.Second)
	if got := reg.CounterValue(obs.NodeWide, "byz", "commits"); got != executed {
		t.Fatalf("a second past drain byz.commits = %d, want all %d executed writes", got, executed)
	}
}

// TestSoakCertifiesEachObjectOnce: every soak object, pre-created or
// created mid-run, is bound by one certificate, installed on its memo;
// no certificate takes the full check.
func TestSoakCertifiesEachObjectOnce(t *testing.T) {
	cfg := DefaultSoakConfig(1000)
	w, err := NewSoakWorld(9, cfg)
	if err != nil {
		t.Fatalf("NewSoakWorld: %v", err)
	}
	if hits, full := w.Pool.ACLs.CertVerifies(); hits != cfg.Objects || full != 0 {
		t.Fatalf("after construction: %d memo hits, %d full verifies for %d objects", hits, full, cfg.Objects)
	}
	eng := workload.NewEngine(w.Pool.K, workload.EngineConfig{
		Clients:       cfg.Clients,
		Ops:           600,
		Mix:           workload.Mix{WriteFrac: 0.3, CreateFrac: 0.05},
		Objects:       cfg.Objects,
		ZipfS:         1.1,
		MeanWriteSize: 128,
		ClosedLoop:    true,
		MeanThink:     200 * time.Millisecond,
		RetryBackoff:  time.Second,
	}, w)
	eng.Start()
	w.Pool.K.RunWhile(func() bool { return !eng.Done() })
	st := eng.Stats()
	if !eng.Done() || st.Failed != 0 || st.Creates == 0 {
		t.Fatalf("run did not drain cleanly with creates: %+v", st)
	}
	objects := len(w.Objects())
	if hits, full := w.Pool.ACLs.CertVerifies(); hits != objects || full != 0 {
		t.Fatalf("after %d creates: %d memo hits, %d full verifies for %d objects", st.Creates, hits, full, objects)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
