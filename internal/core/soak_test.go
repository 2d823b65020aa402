package core

import (
	"bytes"
	"testing"
	"time"

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

// TestByzCommitsCatchUpAfterDrain puts the two "commit" counts side by
// side.  The session acknowledges a write when the primary tier
// EXECUTES it (replica.Ring.fireWaiters, which is what lets the engine
// finish), while byz.commits is bumped when the CLIENT has gathered its
// f+1 reply quorum (byz.Group.clientHandle) — one network hop later.  So
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
