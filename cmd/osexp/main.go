// Command osexp regenerates every quantitative figure and claim in the
// OceanStore paper (see DESIGN.md §3 for the experiment index).
//
// Usage:
//
//	osexp [-seeds N] [-metrics FILE] [-trace FILE] <experiment> [seed]
//
// where <experiment> is one of: fig6, latency, reliability, bloom,
// plaxton, fragments, prefetch, ciphertext, byzfaults, replicamgmt,
// updatepath, or "all".
//
// With -seeds N the experiment runs over seeds seed..seed+N-1, one
// simulator per seed fanned out on the fork-join pool, and the
// per-seed outputs are printed in seed order followed by an aggregate
// row.  The output for each seed is byte-identical to a single-seed
// run: every experiment writes to its own buffer, so parallelism
// never interleaves or reorders lines.
//
// With -metrics FILE the instrumented experiments (latency, fragments,
// updatepath, soak, scenarios) additionally dump their observability
// counters as `go test -bench`-style Benchmark lines; with -trace FILE
// they dump per-message trace events as JSONL.  Both dumps are deterministic:
// the same seed produces byte-identical files at any GOMAXPROCS.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"oceanstore/internal/obs"
	"oceanstore/internal/par"
)

type experiment struct {
	name string
	desc string
	run  func(w io.Writer, seed int64, ob *obsink)
}

var experiments = []experiment{
	{"fig6", "E1: Figure 6 — normalized update cost vs update size (analytic + measured)", runFig6},
	{"latency", "E2: §4.4.5 — commit latency with 100ms WAN messages", runLatency},
	{"reliability", "E3: §4.5 — fragment availability vs whole-object replication", runReliability},
	{"bloom", "E4: §4.3.2 — attenuated Bloom filter location success and stretch", runBloom},
	{"plaxton", "E5: §4.3.3 — mesh routing hops, locate locality, salted roots", runPlaxton},
	{"fragments", "E6: §5 — archival reconstruction vs extra fragment requests", runFragments},
	{"prefetch", "E7: §5 — introspective prefetcher vs noise", runPrefetch},
	{"ciphertext", "E8: §4.4.2 — ciphertext operations and predicate overhead", runCiphertext},
	{"byzfaults", "E9: §4.4.3 — Byzantine tier under crash and lying faults", runByzFaults},
	{"replicamgmt", "E10: §4.7.2 — introspective replica management under load", runReplicaMgmt},
	{"updatepath", "E11: Figure 5 — end-to-end update path timeline", runUpdatePath},
	{"twotier", "§4.3 — combined probabilistic + global location on a pool", runTwoTier},
	{"fanout", "ablation — dissemination tree fanout vs depth and load", runFanout},
	{"soak", "steady state — Zipf mix over a maintained pool with churn", runSoak},
	{"scenarios", "adversarial suite — each audit defense armed vs switched off", runScenarios},
}

// runFailed is set by fail; main exits 1 on it once the dumps are out.
var runFailed atomic.Bool

// fail reports an environment error an experiment could not recover
// from — its report is already printed, but must not pass for a clean
// run.  Experiments under -seeds run concurrently, hence the atomic.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "osexp: "+format+"\n", args...)
	runFailed.Store(true)
}

// flaggedExperiments maps the experiments that take their own flags
// after the positional seed to their flag-set constructors.
var flaggedExperiments = map[string]func() *flag.FlagSet{
	"soak":      soakFlagSet,
	"scenarios": scenariosFlagSet,
}

// obsink bundles the observability sinks one experiment run collects
// into.  A nil *obsink disables collection entirely; experiments that
// spin up several concurrent simulators give each its own sub() sink
// and merge the children back in a fixed order, mirroring internal/
// par's ordered-merge discipline so dumps stay byte-identical at any
// GOMAXPROCS.
type obsink struct {
	reg *obs.Registry
	tr  *obs.Tracer
}

// registry returns the metrics registry (nil when disabled).
func (o *obsink) registry() *obs.Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// tracer returns the trace ring (nil when disabled).
func (o *obsink) tracer() *obs.Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// sub creates a child sink with the same enablement, for per-cell
// simulators that run concurrently.
func (o *obsink) sub() *obsink {
	if o == nil {
		return nil
	}
	c := &obsink{}
	if o.reg != nil {
		c.reg = obs.NewRegistry()
	}
	if o.tr != nil {
		c.tr = obs.NewTracer(0)
	}
	return c
}

// merge folds a child sink back in.  Callers must merge children in a
// deterministic order (grid order, seed order).
func (o *obsink) merge(c *obsink) {
	if o == nil || c == nil {
		return
	}
	if o.reg != nil && c.reg != nil {
		o.reg.Merge(c.reg)
	}
	if o.tr != nil && c.tr != nil {
		o.tr.Append(c.tr)
	}
}

// obsOut is where collected observability goes at the end of a run.
// Both outputs are buffered — a registry dump is hundreds of thousands
// of lines — and flush drains the buffers after every section, so a
// section lands after the report it belongs to when an output shares
// stdout with it, and a full disk fails the section that hit it.
type obsOut struct {
	metricsW *bufio.Writer
	traceW   *bufio.Writer
}

// sinkBuffer is the write size the outputs reach the OS in.
const sinkBuffer = 1 << 20

// newObsOut buffers the enabled outputs; a nil writer disables one.
func newObsOut(metrics, trace io.Writer) *obsOut {
	oo := &obsOut{}
	if metrics != nil {
		oo.metricsW = bufio.NewWriterSize(metrics, sinkBuffer)
	}
	if trace != nil {
		oo.traceW = bufio.NewWriterSize(trace, sinkBuffer)
	}
	return oo
}

// mk creates a fresh per-seed sink matching the enabled outputs, or
// nil when neither output is wanted.  Safe on a nil receiver.
func (o *obsOut) mk() *obsink {
	if o == nil || (o.metricsW == nil && o.traceW == nil) {
		return nil
	}
	ob := &obsink{}
	if o.metricsW != nil {
		ob.reg = obs.NewRegistry()
	}
	if o.traceW != nil {
		ob.tr = obs.NewTracer(0)
	}
	return ob
}

// countingWriter measures a dump on its way into the sink buffer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// flush writes one seed's collected metrics and trace.  Metrics become
// Benchmark lines under obs/<experiment>/s<seed>/...; the trace is a
// JSONL stream prefixed with one header object per seed section.  What
// the dump cost goes to stderr as the obs: rail, beside the soak's mem:,
// kernel: and crypto: — host facts, so never stdout or -metrics:
// "snapshot" is putting the registry in dump order, "write" formatting
// it through the sink buffer to the OS.
func (o *obsOut) flush(exp string, seed int64, ob *obsink) error {
	if o == nil || ob == nil {
		return nil
	}
	if o.metricsW != nil && ob.reg != nil {
		prefix := "obs/" + exp + "/s" + strconv.FormatInt(seed, 10)
		t0 := time.Now()
		series, families := ob.reg.Order()
		t1 := time.Now()
		cw := &countingWriter{w: o.metricsW}
		if err := ob.reg.WriteBench(cw, prefix); err != nil {
			return err
		}
		if err := o.metricsW.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "obs: %d series in %d families, snapshot %.1f ms, write %.1f ms, %.2f MB\n",
			series, families, t1.Sub(t0).Seconds()*1e3, time.Since(t1).Seconds()*1e3, float64(cw.n)/(1<<20))
	}
	if o.traceW != nil && ob.tr != nil {
		if _, err := fmt.Fprintf(o.traceW, "{\"exp\":%q,\"seed\":%d,\"events\":%d,\"dropped\":%d}\n",
			exp, seed, ob.tr.Len(), ob.tr.Dropped()); err != nil {
			return err
		}
		if err := ob.tr.WriteJSONL(o.traceW); err != nil {
			return err
		}
		if err := o.traceW.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// seedOutputs runs e over nSeeds consecutive seeds starting at base,
// in parallel, each into its own buffer and (when mk is non-nil) its
// own observability sink.  Results come back in seed order regardless
// of how many workers ran them.
func seedOutputs(e experiment, base int64, nSeeds int, mk func() *obsink) ([][]byte, []*obsink) {
	type res struct {
		out []byte
		ob  *obsink
	}
	rs := par.Map(nSeeds, 1, func(i int) res {
		var buf bytes.Buffer
		var ob *obsink
		if mk != nil {
			ob = mk()
		}
		e.run(&buf, base+int64(i), ob)
		return res{out: buf.Bytes(), ob: ob}
	})
	outs := make([][]byte, nSeeds)
	sinks := make([]*obsink, nSeeds)
	for i, r := range rs {
		outs[i], sinks[i] = r.out, r.ob
	}
	return outs, sinks
}

// runOne executes one experiment, streaming directly for a single
// seed, or fanning the seed sweep out and printing per-seed sections
// plus an aggregate row.  Observability dumps happen in seed order.
func runOne(e experiment, base int64, nSeeds int, oo *obsOut) {
	fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
	if nSeeds <= 1 {
		ob := oo.mk()
		e.run(os.Stdout, base, ob)
		if err := oo.flush(e.name, base, ob); err != nil {
			fmt.Fprintf(os.Stderr, "obs dump: %v\n", err)
			os.Exit(1)
		}
		return
	}
	outs, sinks := seedOutputs(e, base, nSeeds, oo.mk)
	distinct := make(map[string]bool)
	for i, out := range outs {
		fmt.Printf("---- seed %d ----\n", base+int64(i))
		os.Stdout.Write(out)
		distinct[string(out)] = true
		if err := oo.flush(e.name, base+int64(i), sinks[i]); err != nil {
			fmt.Fprintf(os.Stderr, "obs dump: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("-- aggregate: %s over %d seeds [%d..%d]: %d/%d distinct outputs --\n",
		e.name, nSeeds, base, base+int64(nSeeds)-1, len(distinct), nSeeds)
}

// openSinks opens the -metrics/-trace outputs.  "-" selects stdout.
// The returned function closes the files it opened; flush has already
// drained the buffers, so an error here is the file system refusing the
// last of a dump the run reported as written.
func openSinks(metricsPath, tracePath string) (*obsOut, func() error, error) {
	var files []io.Closer
	open := func(p string) (io.Writer, error) {
		switch p {
		case "":
			return nil, nil
		case "-":
			return os.Stdout, nil
		}
		f, err := os.Create(p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return f, nil
	}
	closeFiles := func() error { return closeAll(files) }
	metrics, err := open(metricsPath)
	if err != nil {
		return nil, nil, err
	}
	trace, err := open(tracePath)
	if err != nil {
		closeFiles()
		return nil, nil, err
	}
	if metrics == nil && trace == nil {
		return nil, closeFiles, nil
	}
	return newObsOut(metrics, trace), closeFiles, nil
}

// closeAll closes every sink and returns the first error.
func closeAll(sinks []io.Closer) error {
	var first error
	for _, c := range sinks {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// startProfiles begins CPU profiling and arranges a heap dump; the
// returned stop function finishes both.  Profiles cover the experiment
// run itself (flag parsing and sink setup are negligible), so any
// subcommand can hand pprof captures to future perf work without
// ad-hoc patching.
func startProfiles(cpuPath, memPath string) func() {
	var cpuF *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "osexp: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "osexp: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "osexp: -memprofile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC() // materialise live-heap numbers before the dump
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "osexp: -memprofile: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}
	}
}

func main() {
	fs := flag.NewFlagSet("osexp", flag.ExitOnError)
	nSeeds := fs.Int("seeds", 1, "run the experiment over N consecutive seeds in parallel")
	metricsPath := fs.String("metrics", "", "write deterministic metrics as Benchmark lines to `FILE` (\"-\" for stdout)")
	tracePath := fs.String("trace", "", "write per-message trace events as JSONL to `FILE` (\"-\" for stdout)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to `FILE`")
	memProfile := fs.String("memprofile", "", "write a pprof allocs profile (with live-heap numbers) to `FILE`")
	fs.Usage = usage
	fs.Parse(os.Args[1:])
	args := fs.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	name := args[0]
	seed := int64(1)
	rest := args[1:]
	// The optional positional seed comes before any experiment-specific
	// flags: `osexp soak 7 -nodes 10000`.
	if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		s, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad seed %q: %v\n", rest[0], err)
			os.Exit(2)
		}
		seed = s
		rest = rest[1:]
	}
	if len(rest) > 0 {
		mkfs, ok := flaggedExperiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unexpected arguments %v (only soak and scenarios take experiment flags)\n", rest)
			os.Exit(2)
		}
		mkfs().Parse(rest)
	}
	var list []experiment
	if name == "all" {
		list = experiments
	} else {
		for _, e := range experiments {
			if e.name == name {
				list = []experiment{e}
			}
		}
		if list == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", name)
			usage()
			os.Exit(2)
		}
	}
	oo, closeSinks, err := openSinks(*metricsPath, *tracePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "osexp: %v\n", err)
		os.Exit(1)
	}
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	for _, e := range list {
		runOne(e, seed, *nSeeds, oo)
		if name == "all" {
			fmt.Println()
		}
	}
	stopProfiles()
	if err := closeSinks(); err != nil {
		fail("closing the -metrics/-trace outputs: %v", err)
	}
	if runFailed.Load() {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: osexp [-seeds N] [-metrics FILE] [-trace FILE] <experiment> [seed] [experiment flags]")
	fmt.Fprintln(os.Stderr, "experiments:")
	for _, e := range experiments {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", e.name, e.desc)
	}
	fmt.Fprintln(os.Stderr, "  all          run everything")
	fmt.Fprintln(os.Stderr, "flags:")
	fmt.Fprintln(os.Stderr, "  -seeds N       run over seeds seed..seed+N-1 in parallel, with an aggregate row")
	fmt.Fprintln(os.Stderr, "  -metrics FILE  dump deterministic counters/histograms as Benchmark lines")
	fmt.Fprintln(os.Stderr, "  -trace FILE    dump per-message trace events as JSONL (instrumented experiments)")
	fmt.Fprintln(os.Stderr, "  -cpuprofile FILE  write a pprof CPU profile of the run")
	fmt.Fprintln(os.Stderr, "  -memprofile FILE  write a pprof allocs profile of the run")
	fmt.Fprintln(os.Stderr, "soak flags (after the seed): -nodes -ops -clients -objects -secondaries -write -create -zipf")
	fmt.Fprintln(os.Stderr, "  -size -think -openloop -arrival -maxinflight -churn -downfor -grow -growat")
	fmt.Fprintln(os.Stderr, "  -backend -storedir -scrub -flush -introspect -iepoch -readsvc")
	fmt.Fprintln(os.Stderr, "  -flash -flashfor -flashmass -flashobjs -diurnal -nightrate -hotrotate")
	fmt.Fprintln(os.Stderr, "scenarios flags (after the seed): -only NAME -armedonly -interval D")
}
