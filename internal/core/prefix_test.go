package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/simnet"
	"oceanstore/internal/workload"
)

// TestReadYourWritesAcrossAMissedPush: a ReadYourWrites session writes
// B while the object's one secondary is down; the secondary comes back,
// and another session's write C reaches it first.  The session's
// committed-length floor is then the primary's length after B, which
// the secondary reached only by applying C on top of the gap — so the
// session read "base.AC", a state without its own write.  A push that
// names its position is not applied past the log end, and the session
// never reads a state without B.
func TestReadYourWritesAcrossAMissedPush(t *testing.T) {
	p := smallPool(31)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("gap", []byte("base."))
	if err != nil {
		t.Fatal(err)
	}
	const victim = 10
	if err := p.AddReplica(obj, victim); err != nil {
		t.Fatal(err)
	}
	mine, other := alice.NewSession(ReadYourWrites), alice.NewSession(0)
	if _, err := mine.Append(obj, []byte("A")); err != nil {
		t.Fatal(err)
	}
	p.Run(10 * time.Second)
	p.Net.Crash(victim)
	if _, err := mine.Append(obj, []byte("B")); err != nil {
		t.Fatal(err)
	}
	p.Run(5 * time.Second)
	p.Net.Recover(victim)
	if _, err := other.Append(obj, []byte("C")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		p.Run(500 * time.Millisecond)
		got, err := mine.Read(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(got), "B") {
			t.Fatalf("at %v the session that wrote B read %q", p.K.Now(), got)
		}
	}
	ring, _ := p.Ring(obj)
	if sec, _ := ring.Secondary(victim); sec.Rep.CommittedLen() != ring.PrimaryState().CommittedLen() {
		t.Fatalf("secondary at length %d, primary at %d", sec.Rep.CommittedLen(), ring.PrimaryState().CommittedLen())
	}
}

// TestSoakSecondariesArePrefixes runs the world `osexp soak 1` builds
// — 256 nodes, 4 000 ops, one node bounced a minute for 20 s — and
// checks at quiescence that every secondary's committed log is a
// prefix of its primary's.  A bounced secondary misses pushes; when a
// later push was applied on top of the gap, three of its 264
// secondaries ended holding logs their primaries never had.
func TestSoakSecondariesArePrefixes(t *testing.T) {
	cfg := DefaultSoakConfig(256)
	cfg.ScrubInterval = 30 * time.Second
	w, err := NewSoakWorld(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := workload.NewEngine(w.Pool.K, workload.EngineConfig{
		Clients:       cfg.Clients,
		Ops:           4000,
		Mix:           workload.Mix{WriteFrac: 0.3, CreateFrac: 0.01},
		Objects:       cfg.Objects,
		ZipfS:         1.1,
		MeanWriteSize: 256,
		ClosedLoop:    true,
		MeanThink:     200 * time.Millisecond,
		MeanArrival:   50 * time.Millisecond,
		RetryBackoff:  time.Second,
	}, w)
	w.StartChurn(time.Minute, 20*time.Second)
	eng.Start()
	w.Pool.K.RunWhile(func() bool { return !eng.Done() })
	if !eng.Done() {
		t.Fatalf("engine did not drain: %+v", eng.Stats())
	}
	secs := 0
	for _, obj := range w.Objects() {
		ring, _ := w.Pool.Ring(obj)
		secs += ring.SecondaryCount()
	}
	if probs := w.Problems(); secs == 0 || len(probs) != 0 {
		t.Fatalf("%d secondaries; %d problems: %q", secs, len(probs), probs)
	}
}

// TestProblemsCountsEveryWriteOnce: a 32-node soak run to quiescence
// reports nothing; with the busiest object's acknowledged count one
// above what its primary committed (a lost write) or one below (a
// write applied twice) it is reported, and only it.
func TestProblemsCountsEveryWriteOnce(t *testing.T) {
	cfg := DefaultSoakConfig(32)
	w, err := NewSoakWorld(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := workload.NewEngine(w.Pool.K, workload.EngineConfig{
		Clients:       cfg.Clients,
		Ops:           2000,
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
	if probs := w.Problems(); len(probs) != 0 {
		t.Fatalf("quiescent world: %q", probs)
	}
	busiest := 0
	for i, tally := range w.writes {
		if tally.abandoned != 0 {
			t.Fatalf("object %d: %d writes abandoned in a run without faults", i, tally.abandoned)
		}
		if tally.acked > w.writes[busiest].acked {
			busiest = i
		}
	}
	if w.writes[busiest].acked == 0 {
		t.Fatal("no write was acknowledged")
	}
	for _, off := range []int{1, -1} {
		w.writes[busiest].acked += off
		w.writes[busiest].sent += off
		if probs := w.Problems(); len(probs) != 1 {
			t.Fatalf("ack count off by %+d: want one problem, got %q", off, probs)
		}
		w.writes[busiest].acked -= off
		w.writes[busiest].sent -= off
	}
}

// TestProblemsReportWorkInFlight: a world stopped before its drain,
// with one object's primary tier cut off from the rest of the network,
// reports that object's writes as still in flight, and a networked
// read as in flight until its reply arrives; healed and drained, it reports
// nothing.
func TestProblemsReportWorkInFlight(t *testing.T) {
	cfg := DefaultSoakConfig(32)
	cfg.ReadService = 2 * time.Millisecond
	w, err := NewSoakWorld(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj := w.Objects()[0]
	ring, _ := w.Pool.Ring(obj)
	tier := map[simnet.NodeID]bool{}
	for _, id := range ring.PrimaryNodes() {
		tier[id] = true
		w.Pool.Net.SetPartition(id, 1)
	}
	resolved, writes := 0, 0
	for c := range w.sessions {
		if tier[w.sessions[c].c.Node] || writes == 3 {
			continue
		}
		if err := w.Do(workload.Request{Client: c, Kind: workload.OpWrite, Object: 0, Size: 16}, func(bool) { resolved++ }); err != nil {
			t.Fatal(err)
		}
		writes++
	}
	if err := w.Do(workload.Request{Client: 0, Kind: workload.OpRead, Object: 1}, func(bool) { resolved++ }); err != nil {
		t.Fatal(err)
	}
	want := []string{"1 reads still in flight", "object " + obj.Short() + ": 3 writes accepted, but 0 were acknowledged and 0 abandoned: 3 still in flight"}
	if probs := w.Problems(); !reflect.DeepEqual(probs, want) {
		t.Fatalf("before the read is served: %q, want %q", probs, want)
	}
	w.Pool.Run(10 * time.Second)
	if probs := w.Problems(); !reflect.DeepEqual(probs, want[1:]) {
		t.Fatalf("with the tier cut off: %q, want %q", probs, want[1:])
	}
	w.Pool.Net.ClearPartitions()
	w.Pool.Run(5 * time.Minute)
	if resolved != writes+1 {
		t.Fatalf("%d of %d operations resolved after the heal", resolved, writes+1)
	}
	if probs := w.Problems(); len(probs) != 0 {
		t.Fatalf("healed and drained: %q", probs)
	}
}
