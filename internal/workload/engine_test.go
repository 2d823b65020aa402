package workload

import (
	"fmt"
	"testing"
	"time"

	"oceanstore/internal/sim"
)

// fakeTarget is a synthetic system under test: completions arrive
// after a fixed virtual delay, an optional in-flight cap sheds load,
// and every failNth completion reports failure.
type fakeTarget struct {
	k        *sim.Kernel
	delay    time.Duration
	cap      int
	failNth  int
	inflight int
	accepted []Request
	resolved int
}

func (t *fakeTarget) Do(req Request, done func(ok bool)) error {
	if t.cap > 0 && t.inflight >= t.cap {
		return ErrOverloaded
	}
	t.accepted = append(t.accepted, req)
	t.inflight++
	fire := func() {
		t.inflight--
		t.resolved++
		done(t.failNth == 0 || t.resolved%t.failNth != 0)
	}
	if t.delay == 0 {
		fire() // synchronous completion, before Do returns
		return nil
	}
	t.k.After(t.delay, fire)
	return nil
}

// trace renders the accepted request sequence for comparison.
func (t *fakeTarget) trace() string {
	s := ""
	for _, r := range t.accepted {
		s += fmt.Sprintf("%d/%s/%d/%d/%d;", r.Client, r.Kind, r.Object, r.Size, r.Seq)
	}
	return s
}

func runEngine(t *testing.T, seed int64, cfg EngineConfig, ft *fakeTarget) (*Engine, EngineStats) {
	t.Helper()
	k := sim.NewKernel(seed)
	ft.k = k
	e := NewEngine(k, cfg, ft)
	e.Start()
	k.RunWhile(func() bool { return !e.Done() })
	if !e.Done() {
		t.Fatalf("engine never drained: %+v", e.Stats())
	}
	return e, e.Stats()
}

func baseConfig() EngineConfig {
	return EngineConfig{
		Clients:       4,
		Ops:           2000,
		Mix:           Mix{WriteFrac: 0.3, CreateFrac: 0.1},
		Objects:       16,
		ZipfS:         1.1,
		MeanWriteSize: 64,
		ClosedLoop:    true,
		MeanThink:     100 * time.Millisecond,
	}
}

// TestEngineDeterminism: the full request sequence is a pure function
// of the seed.
func TestEngineDeterminism(t *testing.T) {
	ft1 := &fakeTarget{delay: 30 * time.Millisecond}
	_, st1 := runEngine(t, 5, baseConfig(), ft1)
	ft2 := &fakeTarget{delay: 30 * time.Millisecond}
	_, st2 := runEngine(t, 5, baseConfig(), ft2)
	if st1 != st2 {
		t.Fatalf("stats diverged across identical runs:\n%+v\n%+v", st1, st2)
	}
	if ft1.trace() != ft2.trace() {
		t.Fatalf("request traces diverged across identical runs")
	}
	ft3 := &fakeTarget{delay: 30 * time.Millisecond}
	_, _ = runEngine(t, 6, baseConfig(), ft3)
	if ft1.trace() == ft3.trace() {
		t.Fatalf("different seeds produced identical request traces")
	}
}

// TestEngineAccounting: budget and completion identities hold, and the
// mix roughly matches the configured fractions.
func TestEngineAccounting(t *testing.T) {
	ft := &fakeTarget{delay: 30 * time.Millisecond, failNth: 10}
	_, st := runEngine(t, 9, baseConfig(), ft)
	if st.Issued != 2000 {
		t.Fatalf("Issued = %d, want 2000", st.Issued)
	}
	if st.OK+st.Failed != st.Issued || st.InFlight != 0 {
		t.Fatalf("identity violated: %+v", st)
	}
	var reads, writes, creates int
	for _, r := range ft.accepted {
		switch r.Kind {
		case OpRead:
			reads++
		case OpWrite:
			writes++
		default:
			creates++
		}
	}
	frac := func(n int) float64 { return float64(n) / float64(len(ft.accepted)) }
	if f := frac(creates); f < 0.07 || f > 0.13 {
		t.Fatalf("create fraction %.3f far from 0.10", f)
	}
	if f := frac(writes); f < 0.25 || f > 0.35 {
		t.Fatalf("write fraction %.3f far from 0.30", f)
	}
	if reads == 0 {
		t.Fatalf("no reads generated")
	}
	if st.Confirmed != 16+st.Creates-failedCreates(ft) {
		t.Fatalf("Confirmed %d != initial 16 + ok creates", st.Confirmed)
	}
}

// failedCreates counts creates the fake target failed (failNth).
func failedCreates(ft *fakeTarget) int {
	// The fake fails every failNth completion regardless of kind; recount
	// from the accepted stream in completion order (= accept order, fixed
	// delay) which creates landed on a failing slot.
	n := 0
	for i, r := range ft.accepted {
		if r.Kind == OpCreate && ft.failNth != 0 && (i+1)%ft.failNth == 0 {
			n++
		}
	}
	return n
}

// TestEngineObjectIndexing: reads and writes target only confirmed
// objects; concurrent creates claim distinct, consecutive indexes.
func TestEngineObjectIndexing(t *testing.T) {
	ft := &fakeTarget{delay: 200 * time.Millisecond}
	cfg := baseConfig()
	cfg.Clients = 16 // plenty of concurrent creates in flight
	cfg.Ops = 3000
	cfg.Mix.CreateFrac = 0.3
	_, st := runEngine(t, 3, cfg, ft)
	// With every create succeeding, the k-th accepted create claims
	// exactly index Objects+k (confirmed universe plus in-flight
	// creates), and reads/writes stay strictly below that frontier.
	createsSoFar := 0
	for _, r := range ft.accepted {
		if r.Kind == OpCreate {
			if want := cfg.Objects + createsSoFar; r.Object != want {
				t.Fatalf("create claimed index %d, want %d", r.Object, want)
			}
			createsSoFar++
		} else if r.Object >= cfg.Objects+createsSoFar {
			t.Fatalf("%s targeted index %d beyond the create frontier %d",
				r.Kind, r.Object, cfg.Objects+createsSoFar)
		}
	}
	if createsSoFar == 0 {
		t.Fatalf("mix produced no creates")
	}
	if st.Confirmed != cfg.Objects+st.Creates {
		t.Fatalf("Confirmed %d != %d initial + %d creates", st.Confirmed, cfg.Objects, st.Creates)
	}
}

// TestEngineBackpressure: a capped target sheds; with retries enabled
// every budgeted op still completes and sheds are counted.
func TestEngineBackpressure(t *testing.T) {
	ft := &fakeTarget{delay: time.Second, cap: 2}
	cfg := baseConfig()
	cfg.Clients = 12
	cfg.Ops = 500
	cfg.MeanThink = 0
	cfg.RetryBackoff = 300 * time.Millisecond
	_, st := runEngine(t, 21, cfg, ft)
	if st.Shed == 0 {
		t.Fatalf("capped target shed nothing: %+v", st)
	}
	if st.Retries != st.Shed {
		t.Fatalf("with RetryBackoff every shed retries: shed %d, retries %d", st.Shed, st.Retries)
	}
	if st.Issued != 500 || st.OK != 500 {
		t.Fatalf("budget not fully resolved: %+v", st)
	}
}

// TestEngineShedWithoutRetry: RetryBackoff=0 drops sheds but still
// charges the budget, so sustained overload terminates.
func TestEngineShedWithoutRetry(t *testing.T) {
	ft := &fakeTarget{delay: time.Minute, cap: 1}
	cfg := baseConfig()
	cfg.Clients = 8
	cfg.Ops = 100
	cfg.MeanThink = 10 * time.Millisecond
	cfg.RetryBackoff = 0
	_, st := runEngine(t, 2, cfg, ft)
	if st.Shed == 0 || st.Retries != 0 {
		t.Fatalf("expected dropped sheds: %+v", st)
	}
	if st.OK+st.Failed != st.Issued || st.Issued != 100 {
		t.Fatalf("dropped sheds must charge the budget: %+v", st)
	}
}

// TestEngineSynchronousTarget: a target that completes inside Do must
// not corrupt the accounting (the engine pre-increments).
func TestEngineSynchronousTarget(t *testing.T) {
	ft := &fakeTarget{delay: 0}
	cfg := baseConfig()
	cfg.Ops = 300
	_, st := runEngine(t, 8, cfg, ft)
	if st.Issued != 300 || st.OK != 300 || st.InFlight != 0 {
		t.Fatalf("synchronous completions corrupted accounting: %+v", st)
	}
	if st.Confirmed != 16+st.Creates {
		t.Fatalf("Confirmed %d != initial + creates %d", st.Confirmed, st.Creates)
	}
}

// TestEngineZeroConfig: a config that names no clients, objects or
// think time runs one client over one object, back to back.
func TestEngineZeroConfig(t *testing.T) {
	ft := &fakeTarget{delay: 10 * time.Millisecond}
	_, st := runEngine(t, 3, EngineConfig{Ops: 50, ClosedLoop: true}, ft)
	if st.Issued != 50 || st.OK != 50 || st.Confirmed != 1 {
		t.Fatalf("zero config accounting: %+v", st)
	}
	for _, r := range ft.accepted {
		if r.Client != 0 || r.Object != 0 || r.Kind != OpRead {
			t.Fatalf("zero config issued %+v, want client 0 reading object 0", r)
		}
	}
	if now := ft.k.Now(); now != 50*ft.delay {
		t.Fatalf("50 ops took %v of virtual time, want %v: no think time between them", now, 50*ft.delay)
	}
}

// TestEngineOpenLoop: arrivals keep coming regardless of completions,
// so in-flight grows past the client count on a slow target.
func TestEngineOpenLoop(t *testing.T) {
	ft := &fakeTarget{delay: 10 * time.Second}
	cfg := baseConfig()
	cfg.ClosedLoop = false
	cfg.Clients = 4
	cfg.Ops = 400
	cfg.MeanArrival = 20 * time.Millisecond
	k := sim.NewKernel(13)
	ft.k = k
	e := NewEngine(k, cfg, ft)
	e.Start()
	peak := 0
	k.RunWhile(func() bool {
		if n := e.Stats().InFlight; n > peak {
			peak = n
		}
		return !e.Done()
	})
	if !e.Done() {
		t.Fatalf("open loop never drained: %+v", e.Stats())
	}
	if peak <= cfg.Clients {
		t.Fatalf("open loop never exceeded client count in flight (peak %d)", peak)
	}
	if st := e.Stats(); st.OK != 400 {
		t.Fatalf("open loop lost ops: %+v", st)
	}
}
