package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"io"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
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
// with the registry attached.
// Re-pinned once when tree pushes began to carry their log position:
// a push that reached a bounced secondary past the commit it missed
// had been applied on top of the gap, leaving 3 of the run's 264
// secondaries with logs that were not prefixes of their primaries'.
// It now waits for anti-entropy, which moves the epidemic and gossip
// counts and the report's traffic line.
// Re-pinned when primary tiers became runs of the network's locality
// order and each object's other floating replicas moved off its tier
// (paper §4.4.3): every commit's agreement runs over shorter links.
// Re-pinned when the locality order began at the centre of the plane
// instead of its bottom edge: every tier sits elsewhere, so every
// client's request leg and every link count moves.
// Re-pinned when the dump began to summarise: zero series are left
// out, and each per-link and per-node family is listed as its exact
// total and the summary of its non-zero per-entity counts.  The report
// did not move, and the new dump is the old one rolled up.
// Re-pinned when a tree push to a secondary that holds the update's
// tentative copy became a commit notice, the request began to name those
// holders, and a copy to the request's own node began to ride it: only
// byte counts moved (bytes_sent and link_bytes, 8 898 574 → 8 177 636,
// and the report's traffic line); every message count, latency and
// epidemic count is the same.
// Re-pinned when the view change became PBFT's: this soak installs no
// view, but its churn fires view-change votes (65 timeouts before, 4
// after), and a voter now stops taking part in its view and sends its
// prepared certificates, so agreement traffic and what commits moved
// (byz.commits 1 201 → 1 212, bytes_sent 8 177 636 → 8 339 773).
const (
	goldenSoakMetrics = "498b3e5a22dcff573498b686fdbb34a882d3cde1e4c7cfc70a23992e112bdcee"
	goldenSoakStdout  = "fa45e70a3e31e17bd75c5d72f6ff8791ec77f8b793e720d441ad694935a21c75"
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

// TestSoakMetricsSummarise: `osexp -metrics FILE soak 1` writes a dump
// that lists no series whose value is zero and each per-entity family —
// links, hosting nodes — as exactly one total line and one summary
// line, and its obs: rail counts exactly the lines the dump holds.
func TestSoakMetricsSummarise(t *testing.T) {
	dir := t.TempDir()
	oo, closeSinks, err := openSinks(filepath.Join(dir, "metrics"), "")
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := os.Stdout, os.Stderr
	report, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer report.Close()
	rails, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer rails.Close()
	os.Stdout, os.Stderr = report, rails
	runOne(findExperiment(t, "soak"), 1, 1, oo)
	os.Stdout, os.Stderr = stdout, stderr
	if err := closeSinks(); err != nil {
		t.Fatal(err)
	}
	dump, err := os.ReadFile(filepath.Join(dir, "metrics"))
	if err != nil {
		t.Fatal(err)
	}
	rail, err := os.ReadFile(rails.Name())
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^obs: ([0-9]+) series in `).FindSubmatch(rail)
	if m == nil {
		t.Fatalf("no obs: rail in %q", rail)
	}
	lines := strings.Split(strings.TrimSuffix(string(dump), "\n"), "\n")
	if series, _ := strconv.Atoi(string(m[1])); series != len(lines) {
		t.Fatalf("the obs: rail counts %d series, the dump holds %d lines", series, len(lines))
	}
	totals, summaries := map[string]int{}, map[string]int{}
	for _, line := range lines {
		name, values, _ := strings.Cut(line, " 1 ")
		fields := strings.Fields(values)
		if v, err := strconv.ParseFloat(fields[0], 64); err != nil || v == 0 {
			t.Errorf("zero or unreadable series: %q", line)
		}
		family, label := path.Split(name)
		switch {
		case label == "each":
			summaries[family]++
		case fields[1] == "count" && len(fields) == 2:
			totals[family]++
		}
	}
	for _, family := range []string{"Benchmarkobs/soak/s1/simnet/link_bytes/", "Benchmarkobs/soak/s1/epidemic/commits/"} {
		if summaries[family] == 0 {
			t.Errorf("%s has no summary line", family)
		}
	}
	for family, n := range summaries {
		if n != 1 || totals[family] != 1 {
			t.Errorf("%s: %d total and %d summary lines, want one each", family, totals[family], n)
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
	if last.replicas >= hotEnd.replicas || last.replicas != 1 {
		t.Fatalf("cold rounds left %d replicas (hot peak %d, floor 1)", last.replicas, hotEnd.replicas)
	}
	if hotEnd.meanReadLatency >= rows[0].meanReadLatency || last.meanReadLatency <= hotEnd.meanReadLatency {
		t.Fatalf("read latency did not follow the tier: first %v, hot peak %v, end %v",
			rows[0].meanReadLatency, hotEnd.meanReadLatency, last.meanReadLatency)
	}
}

// TestFig6AnalyticMatchesMeasured: E1's cost model names every byte the
// simulated agreement sends, so its analytic column equals the measured
// one for each of the paper's tiers.
func TestFig6AnalyticMatchesMeasured(t *testing.T) {
	for _, tier := range [][2]int{{2, 7}, {3, 10}, {4, 13}} {
		for _, u := range []int{100, 4 << 10} {
			m, n := tier[0], tier[1]
			if an, me := analyticCost(n, u), measureCost(m, n, u, 1); an != float64(me) {
				t.Errorf("m=%d n=%d u=%d: analytic %.0f B, measured %d B", m, n, u, an, me)
			}
		}
	}
}

// TestUsageListsEveryFlag: the usage text keeps the lines the usage
// gate row checks and lists every flag of the global set and of each
// experiment's own set, read from the sets themselves.
func TestUsageListsEveryFlag(t *testing.T) {
	fs := flag.NewFlagSet("osexp", flag.ContinueOnError)
	fs.Int("seeds", 1, "run the experiment over `N` consecutive seeds in parallel")
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	usage(fs)
	out := buf.String()
	for _, rail := range []string{`(?m)^usage: osexp `, `(?m)^  all +run everything$`, `(?m)^  -seeds N$`} {
		if !regexp.MustCompile(rail).MatchString(out) {
			t.Errorf("usage does not match %s:\n%s", rail, out)
		}
	}
	for name, mkfs := range flaggedExperiments {
		if !strings.Contains(out, "\n"+name+" flags (after the seed):\n") {
			t.Errorf("usage has no %s flags heading", name)
		}
		mkfs().VisitAll(func(f *flag.Flag) {
			if !regexp.MustCompile(`(?m)^  -` + f.Name + `( |$)`).MatchString(out) {
				t.Errorf("usage does not list %s's -%s", name, f.Name)
			}
		})
	}
}
