package obs_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"oceanstore/internal/obs"
	"oceanstore/internal/par"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// traffic runs one small lossy-network simulation for a seed, fully
// instrumented, and returns its sinks.  Nodes ping-pong: every message
// delivered to node i is answered back to its sender until time runs
// out, so the trace mixes sends, delivers and drops.
func traffic(seed int64) (*obs.Registry, *obs.Tracer) {
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{
		BaseLatency:    10 * time.Millisecond,
		LatencyPerUnit: time.Millisecond,
		DropProb:       0.15,
	})
	net.AddRandomNodes(8, 40, 2)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	net.Instrument(reg, tr)
	net.HandleAll(func(id simnet.NodeID, m simnet.Message) {
		if m.Kind == "ping" {
			net.Send(id, m.From, "pong", nil, 32)
		}
	})
	for i := 0; i < 8; i++ {
		from, to := simnet.NodeID(i), simnet.NodeID((i+3)%8)
		i := i
		k.At(time.Duration(i)*5*time.Millisecond, func() {
			net.Send(from, to, "ping", nil, 64)
		})
	}
	net.CrashAt(60*time.Millisecond, 5)
	net.RecoverAt(120*time.Millisecond, 5)
	k.RunFor(500 * time.Millisecond)
	return reg, tr
}

// dump renders a seed sweep's merged observability, mirroring the
// seed-ordered merge discipline osexp uses.
func dump(t *testing.T, seeds int) ([]byte, []byte) {
	t.Helper()
	type sinks struct {
		reg *obs.Registry
		tr  *obs.Tracer
	}
	per := par.Map(seeds, func(i int) sinks {
		reg, tr := traffic(100 + int64(i))
		return sinks{reg, tr}
	})
	merged := obs.NewRegistry()
	all := obs.NewTracer(0)
	for _, s := range per {
		merged.Merge(s.reg)
		all.Append(s.tr)
	}
	var mbuf, tbuf bytes.Buffer
	if err := merged.WriteBench(&mbuf, "obs/golden/s100"); err != nil {
		t.Fatal(err)
	}
	if err := all.WriteJSONL(&tbuf); err != nil {
		t.Fatal(err)
	}
	return mbuf.Bytes(), tbuf.Bytes()
}

// TestGoldenTraceProcsInvariant pins the package's core promise: a
// fixed seed produces byte-identical metric and JSONL trace dumps
// whether the seed sweep runs serially or fanned out on the fork-join
// pool.
func TestGoldenTraceProcsInvariant(t *testing.T) {
	run := func(procs int) ([]byte, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return dump(t, 4)
	}
	m1, t1 := run(1)
	m4, t4 := run(4)
	if len(m1) == 0 || len(t1) == 0 {
		t.Fatal("empty dump")
	}
	if !bytes.Equal(m1, m4) {
		t.Fatal("metrics dump differs between GOMAXPROCS=1 and 4")
	}
	if !bytes.Equal(t1, t4) {
		t.Fatal("trace dump differs between GOMAXPROCS=1 and 4")
	}
}

// TestGoldenTraceStableAcrossRuns guards against any hidden global
// state: two independent runs of the same sweep must agree exactly.
func TestGoldenTraceStableAcrossRuns(t *testing.T) {
	m1, t1 := dump(t, 2)
	m2, t2 := dump(t, 2)
	if !bytes.Equal(m1, m2) || !bytes.Equal(t1, t2) {
		t.Fatal("same-seed sweep produced different dumps on a second run")
	}
}

// TestInstrumentationDoesNotPerturb: the same seed with and without
// sinks attached must produce identical network statistics — proof
// that observation never changes the observed run.
func TestInstrumentationDoesNotPerturb(t *testing.T) {
	bare := func(seed int64) simnet.Stats {
		k := sim.NewKernel(seed)
		net := simnet.New(k, simnet.Config{BaseLatency: 10 * time.Millisecond, DropProb: 0.15})
		net.AddRandomNodes(8, 40, 2)
		net.HandleAll(func(id simnet.NodeID, m simnet.Message) {
			if m.Kind == "ping" {
				net.Send(id, m.From, "pong", nil, 32)
			}
		})
		for i := 0; i < 8; i++ {
			from, to := simnet.NodeID(i), simnet.NodeID((i+3)%8)
			i := i
			k.At(time.Duration(i)*5*time.Millisecond, func() {
				net.Send(from, to, "ping", nil, 64)
			})
		}
		k.RunFor(500 * time.Millisecond)
		return net.Stats()
	}
	instrumented := func(seed int64) simnet.Stats {
		k := sim.NewKernel(seed)
		net := simnet.New(k, simnet.Config{BaseLatency: 10 * time.Millisecond, DropProb: 0.15})
		net.AddRandomNodes(8, 40, 2)
		net.Instrument(obs.NewRegistry(), obs.NewTracer(0))
		net.HandleAll(func(id simnet.NodeID, m simnet.Message) {
			if m.Kind == "ping" {
				net.Send(id, m.From, "pong", nil, 32)
			}
		})
		for i := 0; i < 8; i++ {
			from, to := simnet.NodeID(i), simnet.NodeID((i+3)%8)
			i := i
			k.At(time.Duration(i)*5*time.Millisecond, func() {
				net.Send(from, to, "ping", nil, 64)
			})
		}
		k.RunFor(500 * time.Millisecond)
		return net.Stats()
	}
	if !reflect.DeepEqual(bare(9), instrumented(9)) {
		t.Fatal("instrumentation changed the simulation's trajectory")
	}
}
