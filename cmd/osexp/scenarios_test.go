package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/core"
	"oceanstore/internal/simnet"
	"oceanstore/internal/workload"
)

func findExperiment(t *testing.T, name string) experiment {
	t.Helper()
	for _, e := range experiments {
		if e.name == name {
			return e
		}
	}
	t.Fatalf("experiment %q not registered", name)
	return experiment{}
}

// TestScenariosFlagParsing: the scenarios subcommand's flags, table
// driven over the same path main() takes.
func TestScenariosFlagParsing(t *testing.T) {
	saved := scenarioOpts
	defer func() { scenarioOpts = saved }()
	cases := []struct {
		name      string
		args      []string
		only      string
		armedOnly bool
		interval  time.Duration
	}{
		{"defaults", nil, "", false, 0},
		{"only", []string{"-only", "bitrot-drizzle"}, "bitrot-drizzle", false, 0},
		{"armedonly", []string{"-armedonly"}, "", true, 0},
		{"both", []string{"-only", "az-loss", "-armedonly"}, "az-loss", true, 0},
		{"interval", []string{"-interval", "30s"}, "", false, 30 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scenarioOpts.only, scenarioOpts.armedOnly, scenarioOpts.interval = "", false, 0
			if err := scenariosFlagSet().Parse(tc.args); err != nil {
				t.Fatalf("parse %v: %v", tc.args, err)
			}
			if scenarioOpts.only != tc.only || scenarioOpts.armedOnly != tc.armedOnly ||
				scenarioOpts.interval != tc.interval {
				t.Fatalf("parse %v: got %+v, want only=%q armedonly=%v interval=%v",
					tc.args, scenarioOpts, tc.only, tc.armedOnly, tc.interval)
			}
		})
	}
}

// TestSoakFlagParsing covers the soak subcommand's flag set the same
// way; a mis-declared flag name or type breaks heavy-run scripts.
func TestSoakFlagParsing(t *testing.T) {
	saved := soakOpts
	defer func() { soakOpts = saved }()
	cases := []struct {
		name  string
		args  []string
		check func() bool
	}{
		{"nodes-ops", []string{"-nodes", "512", "-ops", "100"},
			func() bool { return soakOpts.nodes == 512 && soakOpts.ops == 100 }},
		{"mix", []string{"-write", "0.5", "-create", "0.1", "-zipf", "1.3"},
			func() bool { return soakOpts.write == 0.5 && soakOpts.create == 0.1 && soakOpts.zipf == 1.3 }},
		{"openloop", []string{"-openloop", "-arrival", "25ms"},
			func() bool { return soakOpts.open && soakOpts.arrival == 25*time.Millisecond }},
		{"churn", []string{"-churn", "2m", "-downfor", "30s"},
			func() bool { return soakOpts.churn == 2*time.Minute && soakOpts.downFor == 30*time.Second }},
		{"growth", []string{"-grow", "64", "-growat", "1m"},
			func() bool { return soakOpts.grow == 64 && soakOpts.growAt == time.Minute }},
		{"introspect", []string{"-introspect", "-readsvc", "5ms", "-secondaries", "8", "-iepoch", "2s"},
			func() bool {
				return soakOpts.introspect && soakOpts.readSvc == 5*time.Millisecond &&
					soakOpts.secondaries == 8 && soakOpts.iepoch == 2*time.Second
			}},
		{"shape", []string{"-flash", "3m", "-flashmass", "0.8", "-flashobjs", "2", "-diurnal", "1h", "-hotrotate", "10m"},
			func() bool {
				return soakOpts.flash == 3*time.Minute && soakOpts.flashMass == 0.8 &&
					soakOpts.flashObjs == 2 && soakOpts.diurnal == time.Hour &&
					soakOpts.hotRotate == 10*time.Minute
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			soakOpts = saved
			if err := soakFlagSet().Parse(tc.args); err != nil {
				t.Fatalf("parse %v: %v", tc.args, err)
			}
			if !tc.check() {
				t.Fatalf("parse %v left wrong option values: %+v", tc.args, soakOpts)
			}
		})
	}
}

// TestScenariosReportShape: the report must carry one armed line per
// catalogue entry, the paired disarmed lines, and the greppable
// summary the smoke target gates on.
func TestScenariosReportShape(t *testing.T) {
	saved := scenarioOpts
	defer func() { scenarioOpts = saved }()
	scenarioOpts.only, scenarioOpts.armedOnly = "", false
	e := findExperiment(t, "scenarios")
	var buf bytes.Buffer
	e.run(&buf, 42, nil)
	out := buf.String()
	for _, want := range []string{
		"scenario bitrot-drizzle", "scenario byz-minority", "scenario partition-heal-storm",
		"scenario az-loss", "scenario churn-during-audit", "scenario audit-amplification",
		"scenario replica-tamper", "scenario flash-crowd",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if !strings.Contains(out, "invariant failures: 0") {
		t.Errorf("report must end with a zero-failure summary; got:\n%s", out)
	}
	if got := strings.Count(out, "disarmed broke as expected"); got != 8 {
		t.Errorf("want 8 disarmed-breakage lines, got %d", got)
	}
}

// TestScenariosOnlyUnknown: a typo'd -only must not read as success.
func TestScenariosOnlyUnknown(t *testing.T) {
	saved := scenarioOpts
	defer func() { scenarioOpts = saved }()
	scenarioOpts.only, scenarioOpts.armedOnly = "no-such-scenario", false
	e := findExperiment(t, "scenarios")
	var buf bytes.Buffer
	e.run(&buf, 1, nil)
	if !strings.Contains(buf.String(), "invariant failures: 1") {
		t.Fatalf("unknown scenario must count as a failure; got:\n%s", buf.String())
	}
}

// TestSoakReportShape: the soak report's load-bearing lines, which
// scripts and EXPERIMENTS.md excerpts grep for.
func TestSoakReportShape(t *testing.T) {
	saved := soakOpts
	defer func() { soakOpts = saved }()
	soakOpts.nodes, soakOpts.ops = 32, 60
	e := findExperiment(t, "soak")
	var buf bytes.Buffer
	e.run(&buf, 1, nil)
	out := buf.String()
	for _, want := range []string{"soak: ", "ops: ", "latency: p50", "traffic: ", "committed updates"} {
		if !strings.Contains(out, want) {
			t.Errorf("soak report missing %q; got:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("small soak run should drain cleanly; got:\n%s", out)
	}
}

// failCloseStore is a fragment store whose final flush fails, the way a
// blobstore volume's does when the disk fills or the fsync errors.
type failCloseStore struct{ *archive.NodeStore }

func (failCloseStore) Close() error { return errors.New("injected: final flush failed") }

// TestSoakCloseErrorFailsTheRun: every volume holds acknowledged but
// unwritten records until Close, so a soak whose stores fail to close
// must not pass for a clean run — the error comes back from the run,
// and reporting it flags the process for a non-zero exit.
func TestSoakCloseErrorFailsTheRun(t *testing.T) {
	o := soakOpts
	o.nodes, o.ops, o.churn = 32, 60, 0
	run := func(factory func(simnet.NodeID) archive.Store) error {
		cfg := core.DefaultSoakConfig(o.nodes)
		// A store keeps the backend it materialized with, and creating an
		// object archives its first version — so build the world empty,
		// swap the factory, then provision the objects.
		objects := cfg.Objects
		cfg.Objects = 0
		world, err := core.NewSoakWorld(1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		world.Pool.Arch.SetStoreFactory(factory)
		for i := 0; i < objects; i++ {
			world.Do(workload.Request{Kind: workload.OpCreate}, func(ok bool) {
				if !ok {
					t.Fatal("object create failed")
				}
			})
		}
		cfg.Objects = objects
		var buf bytes.Buffer
		err = soakWorld(&buf, world, cfg, o, nil)
		if !strings.Contains(buf.String(), "committed updates across objects: ") {
			t.Fatalf("report must still be printed in full; got:\n%s", buf.String())
		}
		if len(world.Pool.Arch.StoreNodes()) == 0 {
			t.Fatal("run archived nothing — no store was there to close")
		}
		return err
	}
	healthy := func(simnet.NodeID) archive.Store { return archive.NewNodeStore() }
	failing := func(simnet.NodeID) archive.Store { return failCloseStore{archive.NewNodeStore()} }
	if err := run(healthy); err != nil {
		t.Fatalf("healthy stores: soak returned %v", err)
	}
	err := run(failing)
	if err == nil || !strings.Contains(err.Error(), "final flush failed") {
		t.Fatalf("failing Close was swallowed: soak returned %v", err)
	}
	defer runFailed.Store(false)
	if runFailed.Load() {
		t.Fatal("failure flag set before anything failed")
	}
	fail("soak: closing the fragment stores: %v", err)
	if !runFailed.Load() {
		t.Fatal("fail() did not flag the process for a non-zero exit")
	}
}

// TestSoakRejectsRemovedFlag: -shards selected nothing and is gone; an
// old script passing it must get a flag error, not a silent default.
func TestSoakRejectsRemovedFlag(t *testing.T) {
	saved := soakOpts
	defer func() { soakOpts = saved }()
	fs := soakFlagSet()
	fs.Init("soak", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse([]string{"-nodes", "64", "-shards", "1"}); err == nil {
		t.Fatal("-shards parsed; want a flag error")
	}
}

// TestScenariosObsDumpProcsInvariant is the acceptance gate for the
// audited run's observability: with a fixed seed, the -metrics dump of
// the scenarios experiment (whose armed runs instrument simnet, the
// archive and the auditor) must be byte-identical at GOMAXPROCS=1
// and 4.
func TestScenariosObsDumpProcsInvariant(t *testing.T) {
	saved := scenarioOpts
	defer func() { scenarioOpts = saved }()
	// One audited scenario keeps the test quick; bitrot-drizzle runs the
	// full detect-and-repair loop.
	scenarioOpts.only, scenarioOpts.armedOnly = "bitrot-drizzle", false
	e := findExperiment(t, "scenarios")
	run := func(procs int) ([]byte, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return obsDump(t, e, 11, 2)
	}
	m1, t1 := run(1)
	m4, t4 := run(4)
	if len(m1) == 0 {
		t.Fatal("empty metrics dump")
	}
	if !bytes.Contains(m1, []byte("audit")) {
		t.Fatal("metrics dump carries no audit counters — the auditor was not instrumented")
	}
	if !bytes.Equal(m1, m4) {
		t.Fatal("metrics dump differs between GOMAXPROCS=1 and 4")
	}
	if !bytes.Equal(t1, t4) {
		t.Fatal("trace dump differs between GOMAXPROCS=1 and 4")
	}
}
