package main

import (
	"fmt"
	"math"
)

// clock says what a metric measures.  The two must never be mixed: a
// virtual-time metric is what the modelled OceanStore would do and is
// an exact function of the seed; a host-time metric is what the
// simulator costs to run and carries machine noise.  Counts are exact
// per seed like virtual time.
type clock string

const (
	hostTime    clock = "host"
	virtualTime clock = "virtual"
	counted     clock = "count"
)

// exact reports whether equal seeds must give equal values.
func (c clock) exact() bool { return c != hostTime }

// metric is one catalogue entry.  The catalogue is the single source
// for what a run may emit, what BENCHMARK.json lists, what -compare
// bounds, and what README's glossary documents.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  clock
	// Bound is how far the metric may worsen before -compare flags it:
	// a share of the baseline, or an absolute step when Abs is set.
	// Per-layer metrics carry none.
	Bound float64
	Abs   bool
	// Everywhere marks the end-to-end metrics every workload measures;
	// only those can be listed in BENCHMARK.json, whose driver expects
	// each listed metric from each workload.
	Everywhere bool
}

// endToEnd is what a user of the system, or of the simulator, sees.
//
// The bounds are what ten runs on ten seeds allow on the shared 2-core
// box the baselines came from, not what ISSUE.md hoped for (10% host,
// 2/5/10% virtual): a bound must be at least three times the spread a
// metric shows when nothing changed, or it rejects noise.  Host speed
// on that box wanders by 8-14% between runs, and commit latency moves
// 4-8% with the seed, because the few hot objects' primary tiers land
// on different nodes (README, "Bounds", has the measurements).  The
// tight check is elsewhere: with equal seeds -compare requires every
// virtual-time metric and count to be bit-identical.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Clock: hostTime, Bound: 0.25, Everywhere: true},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Clock: hostTime, Bound: 0.25, Everywhere: true},
	{Name: "total_s", Unit: "s", Better: "lower", Clock: hostTime, Bound: 0.25, Everywhere: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Clock: hostTime, Bound: 0.25, Everywhere: true},
	{Name: "commit_p50_ms", Unit: "ms", Better: "lower", Clock: virtualTime, Bound: 0.25, Everywhere: true},
	{Name: "commit_p99_ms", Unit: "ms", Better: "lower", Clock: virtualTime, Bound: 0.2, Everywhere: true},
	{Name: "commit_p999_ms", Unit: "ms", Better: "lower", Clock: virtualTime, Bound: 0.2, Everywhere: true},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Clock: virtualTime, Bound: 0.25},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower", Clock: virtualTime, Bound: 0.25},
	{Name: "read_p999_ms", Unit: "ms", Better: "lower", Clock: virtualTime, Bound: 0.25},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Clock: virtualTime, Bound: 0.001, Abs: true},
	{Name: "wire_kb_per_op", Unit: "kB", Better: "lower", Clock: virtualTime, Bound: 0.03, Everywhere: true},
}

// perLayer is the outside-in trace: spans timed around public calls,
// direct-call unit costs, and the layers' own counters.
var perLayer = []metric{
	// Phase spans.
	span("core.construct_s"), span("obs.instrument_s"), span("sim.run_s"),
	span("obs.snapshot_s"), span("obs.write_s"), span("core.close_s"),
	// Self time inside sim.run_s, partitioned by who was running.
	span("sim.prelude_s"),
	span("core.do_read_s"), span("core.do_write_s"), span("core.do_create_s"),
	span("replica.on_commit_s"),
	span("byz.handle_s"), span("byz.request_s"), span("byz.preprepare_s"),
	span("byz.prepare_s"), span("byz.commit_s"), span("byz.reply_s"),
	span("byz.viewchange_s"),
	span("dtree.handle_s"), span("replica.handle_s"), span("archive.handle_s"),
	span("audit.handle_s"), span("core.handle_s"), span("unknown.handle_s"),
	{Name: "byz.us_per_commit", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Clock: hostTime},

	// Direct-call unit costs and what they imply for the run.
	unit("update.sign_us"), unit("update.verify_us"), unit("crypt.block_encrypt_us"),
	unit("archive.encode_us"), unit("archive.archive_us"), unit("blobstore.put_us"),
	unit("blobstore.get_us"), unit("blobstore.sync_us"),
	span("update.sign_est_s"), span("archive.encode_est_s"), span("archive.archive_est_s"),
	span("blobstore.put_est_s"), span("blobstore.sync_est_s"),

	// Counts, exact per seed.
	cost("simnet.msgs_sent"), {Name: "simnet.bytes_sent", Unit: "B", Better: "lower", Clock: counted},
	cost("simnet.msgs_dropped"), ratio("simnet.msgs_per_op"),
	work("byz.submits"), work("byz.commits"), cost("byz.view_installs"),
	cost("byz.client_retransmits"), ratio("byz.msgs_per_commit"),
	{Name: "byz.bytes_per_commit", Unit: "B", Better: "lower", Clock: counted},
	work("dtree.updates"), {Name: "dtree.bytes", Unit: "B", Better: "lower", Clock: counted},
	cost("replica.gossip_rounds"), cost("replica.gossip_moved"),
	cost("epidemic.replays"), cost("epidemic.dup_commits"), cost("epidemic.expired"),
	work("archive.archives"), work("archive.frags_stored"), work("archive.scrub_frags"),
	cost("archive.scrub_bad"), cost("archive.repairs"), cost("archive.repair_failed"),
	cost("blobstore.puts"), {Name: "blobstore.bytes_written", Unit: "B", Better: "lower", Clock: counted},
	{Name: "blobstore.bytes_read", Unit: "B", Better: "lower", Clock: counted},
	cost("blobstore.syncs"), cost("blobstore.compactions"), ratio("blobstore.write_amp"),
	work("introspect.promotes"), work("introspect.demotes"), cost("introspect.denied"),
	cost("introspect.replicas_end"),
	{Name: "introspect.read_wire_mb", Unit: "MB", Better: "lower", Clock: counted},
	work("workload.reads"), work("workload.writes"), work("workload.creates"),
	cost("workload.shed"), cost("workload.retries"),
	{Name: "workload.virtual_s", Unit: "s", Better: "lower", Clock: virtualTime},
	cost("obs.series"), {Name: "obs.dump_mb", Unit: "MB", Better: "lower", Clock: counted},

	// Go runtime over sim.run_s: machine-dependent, so host clock.
	{Name: "go.alloc_mb", Unit: "MB", Better: "lower", Clock: hostTime},
	{Name: "go.mallocs_per_op", Unit: "count", Better: "lower", Clock: hostTime},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Clock: hostTime},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Clock: hostTime},
	{Name: "go.heap_sys_mb", Unit: "MB", Better: "lower", Clock: hostTime},
}

func span(name string) metric {
	return metric{Name: name, Unit: "s", Better: "lower", Clock: hostTime}
}
func unit(name string) metric {
	return metric{Name: name, Unit: "us", Better: "lower", Clock: hostTime}
}
func cost(name string) metric {
	return metric{Name: name, Unit: "count", Better: "lower", Clock: counted}
}
func work(name string) metric {
	return metric{Name: name, Unit: "count", Better: "higher", Clock: counted}
}
func ratio(name string) metric {
	return metric{Name: name, Unit: "ratio", Better: "lower", Clock: counted}
}

// catalogue indexes every metric by name.
var catalogue = func() map[string]metric {
	m := make(map[string]metric, len(endToEnd)+len(perLayer))
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, d := range list {
			if _, dup := m[d.Name]; dup {
				panic("benchmark: metric declared twice: " + d.Name)
			}
			m[d.Name] = d
		}
	}
	return m
}()

// metrics is one run's values by catalogue name.
type metrics map[string]float64

// set records a value; a name outside the catalogue is a bug in this
// package, caught by the first test that runs a workload.
func (m metrics) set(name string, v float64) {
	if _, ok := catalogue[name]; !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the catalogue", name))
	}
	m[name] = v
}

// worsening reports how much worse b is than a for metric d: as a share
// of a, or as an absolute step for d.Abs.  Negative is an improvement.
func (d metric) worsening(a, b float64) float64 {
	delta := b - a
	if d.Better == "higher" {
		delta = -delta
	}
	if d.Abs {
		return delta
	}
	if delta == 0 {
		return 0
	}
	return delta / math.Abs(a) // ±Inf from a zero baseline: any step is unbounded
}
