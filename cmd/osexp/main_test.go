package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// TestSeedOutputsProcsInvariant: the -seeds fan-out must produce the
// same per-seed bytes whether the sweep runs serially or on the pool.
// Uses cheap experiments so the test stays fast; each run function
// writes only to its own buffer, so outputs can never interleave.
func TestSeedOutputsProcsInvariant(t *testing.T) {
	for _, e := range experiments {
		switch e.name {
		case "migration", "prefetch", "latency":
		default:
			continue
		}
		e := e
		t.Run(e.name, func(t *testing.T) {
			run := func(procs int) [][]byte {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				outs, _ := seedOutputs(e, 3, 4, nil)
				return outs
			}
			serial := run(1)
			parallel := run(4)
			for i := range serial {
				if !bytes.Equal(serial[i], parallel[i]) {
					t.Fatalf("seed %d: parallel output differs from serial", 3+i)
				}
				if len(serial[i]) == 0 {
					t.Fatalf("seed %d: empty output", 3+i)
				}
			}
		})
	}
}

// TestSingleSeedMatchesSweepMember: seed s run alone must equal the
// s-th section of a multi-seed sweep — the sweep is a pure fan-out,
// not a different experiment.
func TestSingleSeedMatchesSweepMember(t *testing.T) {
	var e experiment
	for _, x := range experiments {
		if x.name == "migration" {
			e = x
		}
	}
	alone, _ := seedOutputs(e, 5, 1, nil)
	swept, _ := seedOutputs(e, 4, 3, nil)
	if !bytes.Equal(alone[0], swept[1]) {
		t.Fatal("seed 5 alone differs from seed 5 inside a [4..6] sweep")
	}
}

// obsDump renders a seed sweep's observability exactly as osexp
// -metrics/-trace would write it, into one byte slice per stream.
func obsDump(t *testing.T, e experiment, base int64, nSeeds int) (metrics, trace []byte) {
	t.Helper()
	var mbuf, tbuf bytes.Buffer
	oo := newObsOut(&mbuf, &tbuf)
	outs, sinks := seedOutputs(e, base, nSeeds, oo.mk)
	for i := range outs {
		if err := oo.flush(e.name, base+int64(i), sinks[i]); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	return mbuf.Bytes(), tbuf.Bytes()
}

// TestObsDumpProcsInvariant is the acceptance gate for the
// observability layer: with a fixed seed, the metrics dump and the
// JSONL trace must be byte-identical at GOMAXPROCS=1 and 4, including
// for the fragments experiment whose per-cell simulators run
// concurrently on the fork-join pool and merge their sub-sinks.
func TestObsDumpProcsInvariant(t *testing.T) {
	for _, name := range []string{"latency", "fragments"} {
		var e experiment
		for _, x := range experiments {
			if x.name == name {
				e = x
			}
		}
		t.Run(name, func(t *testing.T) {
			run := func(procs int) ([]byte, []byte) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				return obsDump(t, e, 3, 2)
			}
			m1, t1 := run(1)
			m4, t4 := run(4)
			if len(m1) == 0 {
				t.Fatal("empty metrics dump")
			}
			if len(t1) == 0 {
				t.Fatal("empty trace dump")
			}
			if !bytes.Equal(m1, m4) {
				t.Fatal("metrics dump differs between GOMAXPROCS=1 and 4")
			}
			if !bytes.Equal(t1, t4) {
				t.Fatal("trace dump differs between GOMAXPROCS=1 and 4")
			}
		})
	}
}

// TestInstrumentationInert: attaching observability must not change an
// experiment's stdout output — collection is counting only, off the
// decision path, drawing no randomness.
func TestInstrumentationInert(t *testing.T) {
	var e experiment
	for _, x := range experiments {
		if x.name == "latency" {
			e = x
		}
	}
	bare, _ := seedOutputs(e, 7, 1, nil)
	oo := newObsOut(&bytes.Buffer{}, &bytes.Buffer{})
	instrumented, _ := seedOutputs(e, 7, 1, oo.mk)
	if !bytes.Equal(bare[0], instrumented[0]) {
		t.Fatal("instrumented run produced different experiment output")
	}
}

// The seed-1 default soak (256 nodes, 4000 ops, a node bounce a minute)
// as PR 21 wrote it: registry attached, per-link counters on.
const (
	goldenSoakMetrics = "3bf6df0b2e9b90e77ca2c43b6e6e899b45193bc5478ca4136f95654c76d688f5"
	goldenSoakStdout  = "6043b1732c0cdd24861e7b8f63e7926cc262ba3e727e3fc7ffd4c181c3f518ca"
)

// TestSoakDumpPinned pins the bytes, not just their stability: the
// -metrics dump and the report of one small seeded soak must hash to
// what the map-keyed registry and the string-switching send path
// produced.  Every host-only change to obs, simnet or the layers in
// between is licensed by this staying true; a change that means to
// alter a dump updates the constants and says why.
func TestSoakDumpPinned(t *testing.T) {
	e := findExperiment(t, "soak")
	var mbuf bytes.Buffer
	oo := newObsOut(&mbuf, nil)
	outs, sinks := seedOutputs(e, 1, 1, oo.mk)
	if err := oo.flush(e.name, 1, sinks[0]); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for _, c := range []struct {
		what string
		got  []byte
		want string
	}{
		{"-metrics dump", mbuf.Bytes(), goldenSoakMetrics},
		{"stdout report", outs[0], goldenSoakStdout},
	} {
		sum := sha256.Sum256(c.got)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s changed (%d bytes):\n got  %s\n want %s", c.what, len(c.got), got, c.want)
		}
	}
}

// fullDisk accepts nothing, the way a write(2) onto a full volume does.
type fullDisk struct{}

func (fullDisk) Write([]byte) (int, error) { return 0, errors.New("injected: no space left on device") }

type failCloser struct{}

func (failCloser) Close() error { return errors.New("injected: close failed") }

// TestMetricsSinkErrorFailsTheRun: the sinks are buffered, so a dump
// smaller than the buffer meets the disk only when flush drains it, and
// its last bytes only when the file closes.  Neither error may be
// swallowed: flush returns the first (runOne exits non-zero on it), and
// a failed close comes back from the closer.
func TestMetricsSinkErrorFailsTheRun(t *testing.T) {
	e := findExperiment(t, "latency")
	for _, c := range []struct {
		name           string
		metrics, trace io.Writer
	}{
		{"metrics", fullDisk{}, nil},
		{"trace", nil, fullDisk{}},
	} {
		oo := newObsOut(c.metrics, c.trace)
		_, sinks := seedOutputs(e, 1, 1, oo.mk)
		if err := oo.flush(e.name, 1, sinks[0]); err == nil {
			t.Errorf("%s sink: flush swallowed the write error", c.name)
		}
	}

	// main hands a close error to fail(), whose non-zero exit
	// TestSoakCloseErrorFailsTheRun pins.
	if err := closeAll([]io.Closer{io.NopCloser(nil), failCloser{}}); err == nil {
		t.Fatal("closeAll swallowed the close error")
	}
}

// TestE10OnController: the E10 table comes from introspect.Controller —
// the policy the soaks run.  Replicas rise while the object is hot,
// fall once the load fades, never exceed MaxReplicas, read latency
// moves the opposite way, and two runs of one seed agree row for row.
func TestE10OnController(t *testing.T) {
	rows := replicaMgmtRows(1)
	if again := replicaMgmtRows(1); !reflect.DeepEqual(rows, again) {
		t.Fatalf("E10 is not deterministic:\n%v\n%v", rows, again)
	}
	var hotEnd, last e10Row
	for i, r := range rows {
		if r.replicas > e10Config.MaxReplicas {
			t.Fatalf("round %d: %d replicas exceed MaxReplicas %d", r.round, r.replicas, e10Config.MaxReplicas)
		}
		if i == 0 {
			continue
		}
		prev := rows[i-1]
		switch {
		case r.load > 1 && r.replicas < prev.replicas:
			t.Fatalf("round %d: replicas fell %d -> %d under load", r.round, prev.replicas, r.replicas)
		case r.load <= 1 && r.replicas > prev.replicas:
			t.Fatalf("round %d: replicas rose %d -> %d after the load faded", r.round, prev.replicas, r.replicas)
		}
		if r.load > 1 {
			hotEnd = r
		}
		last = r
	}
	if hotEnd.replicas <= rows[0].replicas || hotEnd.replicas < 3 {
		t.Fatalf("hot rounds grew the tier only %d -> %d", rows[0].replicas, hotEnd.replicas)
	}
	if last.replicas >= hotEnd.replicas || last.replicas != e10Config.MinReplicas {
		t.Fatalf("cold rounds left %d replicas (hot peak %d, floor %d)", last.replicas, hotEnd.replicas, e10Config.MinReplicas)
	}
	if hotEnd.meanReadLatency >= rows[0].meanReadLatency || last.meanReadLatency <= hotEnd.meanReadLatency {
		t.Fatalf("read latency did not follow the tier: first %v, hot peak %v, end %v",
			rows[0].meanReadLatency, hotEnd.meanReadLatency, last.meanReadLatency)
	}
}
