package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// small shrinks a workload to test size, keeping its shape.
func small(sp spec) spec {
	sp.Nodes = 256
	return sp
}

const smallOps = 2000

// TestWorkloadShapes runs each workload's shape on a 256-node world,
// untraced and traced, and requires: every correctness check passes,
// every metric the workload declares is produced, tracing changes
// nothing that is a function of the seed, the kind->module table
// covers every message kind seen, and the tracer's spans partition the
// run.
func TestWorkloadShapes(t *testing.T) {
	for _, full := range workloads {
		sp := small(full)
		t.Run(sp.Name, func(t *testing.T) {
			plain, err := run(sp, 3, smallOps, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			traced, err := run(sp, 3, smallOps, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{plain, traced} {
				for _, p := range r.Problems {
					t.Errorf("traced=%v: failed check: %s", r.Traced, p)
				}
				if r.Failed != 0 && sp.ChurnEvery == 0 {
					t.Errorf("traced=%v: %d ops failed on a churn-free workload", r.Traced, r.Failed)
				}
			}

			// Untraced: the end-to-end metrics.
			want := []string{"setup_s", "ops_per_s", "total_s", "peak_rss_mb", "commit_p50_ms", "failed_frac", "wire_kb_per_op"}
			modelledReads := sp.soakConfig("").ReadService > 0
			if modelledReads {
				want = append(want, "read_p50_ms", "read_p99_ms")
			}
			for _, name := range want {
				if v, ok := plain.Metrics[name]; !ok || (v <= 0 && name != "failed_frac") {
					t.Errorf("untraced run: %s = %v (present=%v), want > 0", name, v, ok)
				}
			}
			// 600 writes: no p999, by the ten-samples-beyond rule.
			if v, ok := plain.Metrics["commit_p999_ms"]; ok {
				t.Errorf("commit_p999_ms = %v reported from %d writes", v, int(plain.Metrics["workload.writes"]))
			}
			if _, ok := plain.Metrics["read_p50_ms"]; ok != modelledReads {
				t.Errorf("read_p50_ms reported=%v on a workload with modelled reads=%v", ok, modelledReads)
			}
			if n := plain.Samples["commit_p50_ms"]; n != int(plain.Metrics["workload.writes"]) {
				t.Errorf("commit_p50_ms sample count %d, want the %v writes", n, plain.Metrics["workload.writes"])
			}

			// Traced: every per-layer metric except the one that needs
			// the untraced reference.
			for _, d := range perLayer {
				if _, ok := traced.Metrics[d.Name]; !ok && d.Name != "trace.overhead_frac" {
					t.Errorf("traced run: %s missing", d.Name)
				}
			}
			for name, v := range traced.Metrics {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("traced run: %s = %v", name, v)
				}
			}
			if diffs := inexact(plain.Metrics, traced.Metrics, "untraced", "traced"); len(diffs) > 0 {
				t.Errorf("tracing changed the run:\n%s", strings.Join(diffs, "\n"))
			}
			m := traced.Metrics
			if m["unknown.handle_s"] != 0 {
				t.Errorf("unknown.handle_s = %v", m["unknown.handle_s"])
			}
			var owned float64
			for _, name := range []string{
				"sim.prelude_s", "core.do_read_s", "core.do_write_s", "core.do_create_s",
				"replica.on_commit_s", "byz.handle_s", "dtree.handle_s", "replica.handle_s", "archive.handle_s",
				"audit.handle_s", "core.handle_s", "unknown.handle_s",
			} {
				owned += m[name]
			}
			if run := m["sim.run_s"]; math.Abs(owned-run) > 1e-9 {
				t.Errorf("owners' self times sum to %v s of a %v s run", owned, run)
			}
			if m["byz.commits"] < 0.9*m["workload.writes"] || m["byz.handle_s"] <= 0 || m["byz.us_per_commit"] <= 0 {
				t.Errorf("byz: %v commits for %v writes, handle_s %v", m["byz.commits"], m["workload.writes"], m["byz.handle_s"])
			}

			// What makes each workload itself.
			switch sp.Name {
			case "scale-100k":
				if plain.Metrics["obs.dump_mb"] <= 0 || plain.Metrics["obs.write_s"] <= 0 || plain.Metrics["obs.series"] <= 0 {
					t.Errorf("no dump timed: %v MB, %v s, %v series", plain.Metrics["obs.dump_mb"], plain.Metrics["obs.write_s"], plain.Metrics["obs.series"])
				}
			case "archive-disk-1k":
				if m["blobstore.puts"] <= 0 || m["blobstore.syncs"] <= 0 || m["blobstore.write_amp"] <= 1 {
					t.Errorf("disk backend idle: %v puts, %v syncs, write amp %v", m["blobstore.puts"], m["blobstore.syncs"], m["blobstore.write_amp"])
				}
				if m["archive.archives"] < m["workload.writes"] {
					t.Errorf("%v archives for %v commits with ArchiveEvery=1", m["archive.archives"], m["workload.writes"])
				}
			case "flash-crowd-10k", "flash-churn-10k":
				if m["introspect.read_wire_mb"] <= 0 || m["introspect.replicas_end"] <= 0 {
					t.Errorf("modelled read path idle: %v MB, %v replicas", m["introspect.read_wire_mb"], m["introspect.replicas_end"])
				}
			}
			if sp.Name != "scale-100k" && plain.Metrics["obs.write_s"] != 0 {
				t.Errorf("obs.write_s = %v on a workload without a dump", plain.Metrics["obs.write_s"])
			}
		})
	}
}

// TestChurnIsSeen runs the flash-churn shape with bounces every two
// seconds: whatever the bounces cost — drops, retransmits, failed
// writes — every correctness check must still hold, and the bounces
// must be visible in the counts.
func TestChurnIsSeen(t *testing.T) {
	sp := small(flashChurn)
	sp.ChurnEvery, sp.ChurnDown = 2*time.Second, time.Second
	r, err := run(sp, 5, 10000, true, t.TempDir()) // ~10 s virtual at 1 ms arrivals
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Problems {
		t.Errorf("failed check: %s", p)
	}
	if r.Metrics["simnet.msgs_dropped"] == 0 {
		t.Error("no message was dropped: the bounces never happened")
	}
}

// TestRunIsDeterministic: two untraced runs of one seed agree on every
// virtual-time metric and count, and a different seed does not.
func TestRunIsDeterministic(t *testing.T) {
	sp := small(workloads[0])
	a, err := run(sp, 11, smallOps, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(sp, 11, smallOps, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if diffs := inexact(a.Metrics, b.Metrics, "first", "second"); len(diffs) > 0 {
		t.Errorf("same seed, different runs:\n%s", strings.Join(diffs, "\n"))
	}
	c, err := run(sp, 12, smallOps, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(inexact(a.Metrics, c.Metrics, "seed-11", "seed-12")) == 0 {
		t.Error("seeds 11 and 12 gave identical virtual-time metrics: the seed is not reaching the world")
	}
}
