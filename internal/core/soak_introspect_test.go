package core

import (
	"bytes"
	"testing"
	"time"

	"oceanstore/internal/obs"
	"oceanstore/internal/simnet"
	"oceanstore/internal/workload"
)

// runIntrospectSoak drives a flash-crowd soak over the networked read
// path, with the introspection loop armed or not, and returns the
// world (post-run), the engine, and the metrics dump.
func runIntrospectSoak(t *testing.T, seed int64, armed bool) (*SoakWorld, *workload.Engine, []byte) {
	t.Helper()
	cfg := DefaultSoakConfig(48)
	cfg.Objects = 8
	cfg.Clients = 32
	cfg.Secondaries = 2
	cfg.MaxInFlight = 256
	cfg.ReadService = 20 * time.Millisecond
	cfg.Introspect = armed
	cfg.IntrospectEpoch = time.Second
	cfg.NodeBudget = 3
	cfg.IntrospectCfg.PromotesPerEpoch = 8
	cfg.IntrospectCfg.CooldownEpochs = 2
	w, err := NewSoakWorld(seed, cfg)
	if err != nil {
		t.Fatalf("NewSoakWorld: %v", err)
	}
	reg := obs.NewRegistry()
	w.Instrument(reg, nil)
	eng := workload.NewEngine(w.Pool.K, workload.EngineConfig{
		Clients:       cfg.Clients,
		Ops:           3000,
		Mix:           workload.Mix{WriteFrac: 0.05},
		Objects:       cfg.Objects,
		ZipfS:         1.2,
		MeanWriteSize: 128,
		ClosedLoop:    true,
		MeanThink:     10 * time.Millisecond,
		RetryBackoff:  time.Second,
		Shape: workload.Shape{
			FlashAt:      2 * time.Second,
			FlashFor:     5 * time.Minute, // covers the rest of the run
			FlashMass:    0.9,
			FlashObjects: 1,
		},
	}, w)
	eng.Instrument(reg)
	eng.Start()
	w.Pool.K.RunWhile(func() bool { return !eng.Done() })
	if !eng.Done() {
		t.Fatalf("engine did not drain: %+v", eng.Stats())
	}
	var buf bytes.Buffer
	if err := reg.WriteBench(&buf, "IntrospectSoak"); err != nil {
		t.Fatalf("WriteBench: %v", err)
	}
	return w, eng, buf.Bytes()
}

// TestSoakIntrospectFlashBendsTail: under a flash crowd on the queued
// read path, arming introspection grows the hot object's tier and
// materially lowers read latency versus the static control.
func TestSoakIntrospectFlashBendsTail(t *testing.T) {
	wArmed, engArmed, _ := runIntrospectSoak(t, 5, true)
	wOff, engOff, _ := runIntrospectSoak(t, 5, false)

	ctrl := wArmed.Controller()
	if ctrl == nil {
		t.Fatal("armed world has no controller")
	}
	if wOff.Controller() != nil {
		t.Fatal("disarmed world grew a controller")
	}
	st := ctrl.Stats()
	if st.Promotes == 0 {
		t.Fatalf("flash heat provoked no promotions: %+v", st)
	}
	if st.Epochs == 0 {
		t.Fatalf("controller never ticked: %+v", st)
	}

	la, lo := engArmed.ReadLatency(), engOff.ReadLatency()
	if la.Count() == 0 || lo.Count() == 0 {
		t.Fatalf("no read latency recorded: armed %d, off %d", la.Count(), lo.Count())
	}
	if la.Mean() >= lo.Mean() {
		t.Fatalf("introspection did not bend latency: armed mean %dns >= static mean %dns",
			la.Mean(), lo.Mean())
	}
	for _, kind := range []string{KindReadReq, KindReadRep} {
		if a, o := wArmed.Pool.Net.KindBytes(kind), wOff.Pool.Net.KindBytes(kind); a == 0 || o == 0 {
			t.Fatalf("reads sent no %s bytes through the network: armed %d, off %d", kind, a, o)
		}
	}
	if a, o := wArmed.ReadWireBytes(), wOff.ReadWireBytes(); a == 0 || o == 0 {
		t.Fatalf("read replies carried no versions: armed %d B, off %d B", a, o)
	}
}

// TestSoakIntrospectBudgetAndCensus: after an armed run, no node hosts
// more floating replicas than its budget, the per-node census agrees
// with the rings, and the controller's tier size matches both.
func TestSoakIntrospectBudgetAndCensus(t *testing.T) {
	w, _, _ := runIntrospectSoak(t, 9, true)
	budget := w.cfg.NodeBudget
	census := 0
	for i := 0; i < w.Pool.Net.Len(); i++ {
		h := w.HostedAt(simnet.NodeID(i))
		if h > budget {
			t.Fatalf("node %d hosts %d floating replicas, budget %d", i, h, budget)
		}
		census += h
	}
	rings := 0
	for _, obj := range w.Objects() {
		ring, ok := w.Pool.Ring(obj)
		if !ok {
			t.Fatalf("object %v lost its ring", obj)
		}
		rings += ring.SecondaryCount()
	}
	if census != rings {
		t.Fatalf("hosted census %d disagrees with ring secondaries %d", census, rings)
	}
	if ts := w.Controller().TierSize(); ts != rings {
		t.Fatalf("controller tier size %d disagrees with ring secondaries %d", ts, rings)
	}
}

// TestSoakIntrospectDeterminism: the armed flash soak is a pure
// function of the seed — engine stats, controller stats, and the whole
// metrics dump are identical run over run.
func TestSoakIntrospectDeterminism(t *testing.T) {
	w1, e1, m1 := runIntrospectSoak(t, 21, true)
	w2, e2, m2 := runIntrospectSoak(t, 21, true)
	if e1.Stats() != e2.Stats() {
		t.Fatalf("engine stats diverged:\n%+v\n%+v", e1.Stats(), e2.Stats())
	}
	if w1.Controller().Stats() != w2.Controller().Stats() {
		t.Fatalf("controller stats diverged:\n%+v\n%+v",
			w1.Controller().Stats(), w2.Controller().Stats())
	}
	if w1.Controller().TierSize() != w2.Controller().TierSize() {
		t.Fatalf("tier size diverged: %d vs %d",
			w1.Controller().TierSize(), w2.Controller().TierSize())
	}
	if !bytes.Equal(m1, m2) {
		t.Fatalf("metrics dumps diverged (%d vs %d bytes)", len(m1), len(m2))
	}
	_, _, m3 := runIntrospectSoak(t, 22, true)
	if bytes.Equal(m1, m3) {
		t.Fatal("different seeds produced identical metrics dumps")
	}
}
