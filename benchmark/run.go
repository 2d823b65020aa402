package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/blobstore"
	"oceanstore/internal/core"
	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/simnet"
	"oceanstore/internal/workload"
)

// result is one run of one workload in one process.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`
	Traced   bool   `json:"traced"`
	// Failed is how many of the Ops attempted operations failed
	// (timed out, aborted, or were shed and dropped).
	Failed int `json:"failed"`
	// Problems lists failed correctness checks; any makes the command
	// exit non-zero.
	Problems []string `json:"problems"`
	Metrics  metrics  `json:"metrics"`
	// Samples is the sample count behind each reported percentile.
	Samples map[string]int `json:"samples"`
}

func (r *result) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// An untraced run builds the world again after the measured run, so
// setup_s is a median rather than one noisy sample: at least minSetups
// builds, and more (up to maxSetups) while they are cheap enough that
// all of them together take under setupBudget.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

// sampleSize is how many objects the read-back check reads and how
// many volumes the reopen check opens.
const sampleSize = 16

// built is a world with its engine, ready for eng.Start.
type built struct {
	world *core.SoakWorld
	reg   *obs.Registry
	eng   *workload.Engine
	cfg   core.SoakConfig
	// Phase spans; setup is everything before eng.Start.
	construct, instrument, setup time.Duration
}

// build constructs the world and engine for sp.  withReg attaches an
// obs registry; tr, when non-nil, hooks the tracer in.
func build(sp spec, seed int64, ops int, storeDir string, withReg bool, tr *tracer) (*built, error) {
	b := &built{cfg: sp.soakConfig(storeDir)}
	t0 := time.Now()
	w, err := core.NewSoakWorld(seed, b.cfg)
	if err != nil {
		return nil, err
	}
	b.world = w
	b.construct = time.Since(t0)
	if withReg {
		t1 := time.Now()
		b.reg = obs.NewRegistry()
		w.Instrument(b.reg, nil)
		b.instrument = time.Since(t1)
	}
	var target workload.Target = w
	if tr != nil {
		target = tr.attach(w)
	}
	b.eng = workload.NewEngine(w.Pool.K, sp.engineConfig(b.cfg, ops), target)
	if withReg {
		b.eng.Instrument(b.reg)
	}
	if sp.ChurnEvery > 0 {
		w.StartChurn(sp.ChurnEvery, sp.ChurnDown)
	}
	b.setup = time.Since(t0)
	return b, nil
}

// segments is how many equal-op slices of a run are timed for
// ops_per_s.  The median slice is reported: a shared box stalls a run
// for a second at a time, which moves the mean by several percent and
// the median hardly at all.
const segments = 50

// tap collects per-op samples through Engine.Tap.
type tap struct {
	lat       [3]latencies // by workload.OpKind
	failed    int
	okWrites  int
	userBytes int64 // payload bytes of committed writes
	blockSize int

	// Wall-clock slices of segOps resolved ops each.
	segOps, resolved int
	segStart         time.Time
	segWall          []float64 // seconds
}

func (t *tap) observe(req workload.Request, lat time.Duration, ok bool) {
	if t.resolved++; t.resolved%t.segOps == 0 {
		now := time.Now()
		t.segWall = append(t.segWall, now.Sub(t.segStart).Seconds())
		t.segStart = now
	}
	// A failed op enters at the latency it failed with: its timeout.
	t.lat[req.Kind] = append(t.lat[req.Kind], int64(lat))
	switch {
	case !ok:
		t.failed++
	case req.Kind == workload.OpWrite:
		t.okWrites++
		t.userBytes += int64(min(req.Size, t.blockSize))
	}
}

// run executes one workload once and measures it.  An error means the
// environment failed (no temp dir, world would not build); failed
// correctness checks are returned in result.Problems.
func run(sp spec, seed int64, ops int, traced bool, tmpRoot string) (*result, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, sp.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeDir := func(i int) (string, error) {
		d := filepath.Join(dir, fmt.Sprintf("vols-%d", i))
		return d, os.Mkdir(d, 0o755)
	}

	r := &result{
		Workload: sp.Name, Seed: seed, Ops: ops, Traced: traced,
		Metrics: metrics{}, Samples: map[string]int{},
	}
	m := r.Metrics
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	vols, err := storeDir(0)
	if err != nil {
		return nil, err
	}
	b, err := build(sp, seed, ops, vols, sp.Registry || traced, tr)
	if err != nil {
		return nil, err
	}
	w, net, k := b.world, b.world.Pool.Net, b.world.Pool.K
	tp := &tap{blockSize: b.cfg.BlockSize, segOps: max(ops/segments, 1)}
	for i := range tp.lat {
		tp.lat[i] = make(latencies, 0, ops)
	}
	b.eng.Tap(tp.observe)

	// Run.
	before := obs.SampleMem()
	t0 := time.Now()
	if tr != nil {
		tr.start(t0)
	}
	tp.segStart = t0
	b.eng.Start()
	k.RunWhile(func() bool { return !b.eng.Done() })
	end := time.Now()
	if tr != nil {
		tr.stop(end)
		net.SetTrace(nil)
	}
	runWall := end.Sub(t0)
	after := obs.SampleMem()

	// Dump, where the workload includes one.  Elsewhere a registry
	// exists only to serve a traced run's counts: its cost is the
	// tracer's, not the workload's, and the obs spans stay zero.
	var snap []obs.Metric
	var instrument, snapshot, write time.Duration
	m.set("obs.dump_mb", 0)
	switch {
	case sp.Registry:
		instrument = b.instrument
		t1 := time.Now()
		snap = b.reg.Snapshot()
		snapshot = time.Since(t1)
		size, err := writeDump(b.reg, filepath.Join(dir, "metrics.txt"))
		if err != nil {
			return nil, err
		}
		write = time.Since(t1) - snapshot
		m.set("obs.dump_mb", float64(size)/(1<<20))
	case b.reg != nil:
		snap = b.reg.Snapshot()
	}

	// Counts and virtual-time metrics, before the read-back check adds
	// traffic of its own.
	st := b.eng.Stats()
	r.Failed = st.Failed
	collectCounts(m, b, tp, snap)
	m.set("failed_frac", float64(st.Failed)/float64(ops))
	m.set("wire_kb_per_op", float64(net.Stats().BytesSent+w.ReadWireBytes())/float64(ops)/1000)
	r.percentiles("commit_", tp.lat[workload.OpWrite])
	if b.cfg.ReadService > 0 {
		// Synchronous reads take no virtual time: no latency to report.
		r.percentiles("read_", tp.lat[workload.OpRead])
	}
	for mem, v := range map[string]float64{
		"go.alloc_mb":       float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		"go.mallocs_per_op": float64(after.Mallocs-before.Mallocs) / float64(ops),
		"go.gc_cycles":      float64(after.NumGC - before.NumGC),
		"go.gc_pause_ms":    float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		"go.heap_sys_mb":    float64(after.HeapSys) / (1 << 20),
	} {
		m.set(mem, v)
	}

	// Correctness, part 1: on the live world.
	if !b.eng.Done() || st.InFlight != 0 || w.InFlight() != 0 {
		r.problemf("engine not drained: done=%v, %d in flight at the engine, %d at the world", b.eng.Done(), st.InFlight, w.InFlight())
	}
	if st.OK+st.Failed != ops || st.Failed != tp.failed {
		r.problemf("accounting: %d ok + %d failed != %d ops (tap saw %d failed)", st.OK, st.Failed, ops, tp.failed)
	}
	committed := 0
	for _, obj := range w.Objects() {
		if ring, ok := w.Pool.Ring(obj); ok {
			n, _ := ring.PrimaryState().Log.Counts()
			committed += n
		}
	}
	if committed < tp.okWrites || (sp.ChurnEvery == 0 && committed != tp.okWrites) {
		r.problemf("primary logs hold %d commits for %d acknowledged writes", committed, tp.okWrites)
	}
	if bad := m["archive.scrub_bad"]; bad != 0 {
		r.problemf("scrub found %v bad fragments in a run with no injected faults", bad)
	}
	if tr != nil {
		if unknown := tr.unknownKinds(); len(unknown) > 0 {
			r.problemf("message kinds no module claims: %s", strings.Join(unknown, ", "))
		}
	}
	if failed := readBack(w); failed != "" {
		r.problemf("read-back: %s", failed)
	}
	held := heldFragments(w)

	t1 := time.Now()
	if err := w.Close(); err != nil {
		r.problemf("close: %v", err)
	}
	closing := time.Since(t1)
	peakRSS := obs.PeakRSS()

	// Correctness, part 2: what reached the disk.
	for _, h := range held {
		if err := h.verifyReopened(vols); err != nil {
			r.problemf("reopen: %v", err)
		}
	}

	for name, d := range map[string]time.Duration{
		"core.construct_s": b.construct, "obs.instrument_s": instrument,
		"sim.run_s": runWall, "obs.snapshot_s": snapshot, "obs.write_s": write,
		"core.close_s": closing,
	} {
		m.set(name, d.Seconds())
	}
	if tr != nil {
		// Host-time end-to-end metrics come from untraced runs only.
		tr.report(m)
		if err := directCosts(m, seed, b.cfg, dir); err != nil {
			return nil, err
		}
		for est, factors := range map[string][2]string{
			"update.sign_est_s":     {"update.sign_us", "workload.writes"},
			"archive.encode_est_s":  {"archive.encode_us", "archive.archives"},
			"archive.archive_est_s": {"archive.archive_us", "archive.archives"},
			"blobstore.put_est_s":   {"blobstore.put_us", "blobstore.puts"},
			"blobstore.sync_est_s":  {"blobstore.sync_us", "blobstore.syncs"},
		} {
			m.set(est, m[factors[0]]*m[factors[1]]/1e6)
		}
		return r, nil
	}

	// The world is rebuilt only now, after the measured run, so that
	// the peak RSS read above is the run's own.
	setups, spent := []float64{b.setup.Seconds()}, b.setup
	b, w = nil, nil
	for i := 1; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		runtime.GC()
		d, err := storeDir(i)
		if err != nil {
			return nil, err
		}
		again, err := build(sp, seed, ops, d, sp.Registry, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, again.setup.Seconds())
		spent += again.setup
		if err := again.world.Close(); err != nil {
			return nil, err
		}
	}
	setup := median(setups)
	m.set("setup_s", setup)
	m.set("ops_per_s", float64(tp.segOps)/median(tp.segWall))
	m.set("total_s", setup+(runWall+snapshot+write+closing).Seconds())
	m.set("peak_rss_mb", float64(peakRSS)/(1<<20))
	return r, nil
}

// percentiles reports p50/p99/p999 of one op kind, each only when at
// least minBeyond samples lie beyond it.
func (r *result) percentiles(prefix string, l latencies) {
	l.sort()
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p99_ms", 0.99}, {"p999_ms", 0.999}} {
		if v, ok := l.ms(p.q); ok {
			r.Metrics.set(prefix+p.name, v)
			r.Samples[prefix+p.name] = len(l)
		}
	}
}

// writeDump writes the full registry the way `osexp -metrics` does and
// returns the dump's size.
func writeDump(reg *obs.Registry, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := reg.WriteBench(bw, "Soak"); err != nil {
		f.Close()
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return fi.Size(), f.Close()
}

// collectCounts reads every layer's own counters.  Registry-backed
// counts are set only when a registry was attached (snap non-nil).
func collectCounts(m metrics, b *built, tp *tap, snap []obs.Metric) {
	w, st := b.world, b.eng.Stats()
	ops := float64(st.OK + st.Failed)
	ns := w.Pool.Net.Stats()
	m.set("simnet.msgs_sent", float64(ns.MessagesSent))
	m.set("simnet.bytes_sent", float64(ns.BytesSent))
	m.set("simnet.msgs_dropped", float64(ns.MessagesDropped))
	m.set("simnet.msgs_per_op", float64(ns.MessagesSent)/ops)
	var byzBytes, dtreeBytes int64
	for kind, n := range ns.ByKind {
		switch moduleOf(kind) {
		case "byz":
			byzBytes += n
		case "dtree":
			dtreeBytes += n
		}
	}
	m.set("dtree.bytes", float64(dtreeBytes))

	m.set("workload.reads", float64(len(tp.lat[workload.OpRead])))
	m.set("workload.writes", float64(len(tp.lat[workload.OpWrite])))
	m.set("workload.creates", float64(len(tp.lat[workload.OpCreate])))
	m.set("workload.shed", float64(st.Shed))
	m.set("workload.retries", float64(st.Retries))
	m.set("workload.virtual_s", w.Pool.K.Now().Seconds())

	var ss archive.SchedulerStats
	if sc := w.Scheduler(); sc != nil {
		ss = sc.Stats()
	}
	m.set("archive.scrub_frags", float64(ss.ScrubbedFrags))
	m.set("archive.scrub_bad", float64(ss.ScrubBad))
	m.set("archive.repairs", float64(ss.Repairs))
	m.set("archive.repair_failed", float64(ss.RepairFailed))

	bs, _ := w.BlobStats()
	m.set("blobstore.puts", float64(bs.Puts))
	m.set("blobstore.bytes_written", float64(bs.BytesWritten))
	m.set("blobstore.bytes_read", float64(bs.BytesRead))
	m.set("blobstore.syncs", float64(bs.Syncs))
	m.set("blobstore.compactions", float64(bs.Compactions))
	m.set("blobstore.write_amp", 0)
	if tp.userBytes > 0 {
		m.set("blobstore.write_amp", float64(bs.BytesWritten)/float64(tp.userBytes))
	}

	var promotes, demotes, denied, replicas int
	if ctrl := w.Controller(); ctrl != nil {
		cs := ctrl.Stats()
		promotes, demotes, denied, replicas = cs.Promotes, cs.Demotes, cs.Denied, ctrl.TierSize()
	}
	m.set("introspect.promotes", float64(promotes))
	m.set("introspect.demotes", float64(demotes))
	m.set("introspect.denied", float64(denied))
	m.set("introspect.replicas_end", float64(replicas))
	m.set("introspect.read_wire_mb", float64(w.ReadWireBytes())/(1<<20))

	if snap == nil {
		return
	}
	sums := map[string]int64{}
	for _, s := range snap {
		if s.Kind == "counter" {
			sums[s.Key.Layer+"."+s.Key.Name] += s.Count
		}
	}
	m.set("obs.series", float64(len(snap)))
	for name, series := range map[string]string{
		"byz.submits":            "byz.submits",
		"byz.commits":            "byz.commits",
		"byz.view_installs":      "byz.view_installs",
		"byz.client_retransmits": "byz.client_retransmits",
		"replica.gossip_rounds":  "replica.gossip_rounds",
		"replica.gossip_moved":   "replica.gossip_moved",
		"epidemic.replays":       "epidemic.replays",
		"epidemic.dup_commits":   "epidemic.dup_commits",
		"epidemic.expired":       "epidemic.expired",
		"archive.archives":       "archive.archives",
		"archive.frags_stored":   "archive.frags_stored",
	} {
		m.set(name, float64(sums[series]))
	}
	m.set("byz.bytes_per_commit", 0)
	if commits := sums["byz.commits"]; commits > 0 {
		m.set("byz.bytes_per_commit", float64(byzBytes)/float64(commits))
	}
}

// readBack reads a fixed sample of objects through client sessions and
// returns a description of what failed, or "".  Modelled reads complete
// through the kernel, so it is given virtual time to finish.
func readBack(w *core.SoakWorld) string {
	pending, failed := 0, 0
	objects := len(w.Objects())
	n := min(sampleSize, objects)
	for i := 0; i < n; i++ {
		pending++
		req := workload.Request{Client: i, Kind: workload.OpRead, Object: i * objects / n}
		if err := w.Do(req, func(ok bool) {
			pending--
			if !ok {
				failed++
			}
		}); err != nil {
			return fmt.Sprintf("object %d refused: %v", req.Object, err)
		}
	}
	k := w.Pool.K
	deadline := k.Now() + time.Minute
	k.RunWhile(func() bool { return pending > 0 && k.Now() < deadline })
	if pending > 0 || failed > 0 {
		return fmt.Sprintf("of %d sampled objects %d failed and %d never completed", n, failed, pending)
	}
	return ""
}

// heldVolume is what one disk volume held just before Close.
type heldVolume struct {
	node  simnet.NodeID
	frags []fragRef
}

type fragRef struct {
	root  guid.GUID
	index int
}

// heldFragments lists the fragments on a fixed sample of disk volumes
// (none on the memory backend).
func heldFragments(w *core.SoakWorld) []heldVolume {
	var out []heldVolume
	nodes := w.Pool.Arch.StoreNodes()
	n := min(sampleSize, len(nodes))
	for i := 0; i < n; i++ {
		id := nodes[i*len(nodes)/n]
		bs, ok := w.Pool.Arch.Store(id).(*blobstore.Store)
		if !ok {
			return nil
		}
		h := heldVolume{node: id}
		bs.Scan(func(root guid.GUID, index int) bool {
			h.frags = append(h.frags, fragRef{root, index})
			return true
		})
		out = append(out, h)
	}
	return out
}

// verifyReopened opens the volume afresh — the crash-recovery scan a
// restarted node would run — and requires every fragment held before
// Close to be present and self-verifying.
func (h heldVolume) verifyReopened(storeDir string) error {
	path := filepath.Join(storeDir, fmt.Sprintf("vol-%06d.log", h.node))
	st, err := blobstore.Open(blobstore.Config{Path: path})
	if err != nil {
		return err
	}
	defer st.Close()
	for _, f := range h.frags {
		sf, ok := st.Get(f.root, f.index)
		if !ok {
			return fmt.Errorf("%s: fragment %s/%d lost across close", path, f.root.Short(), f.index)
		}
		if !sf.Verify() {
			return fmt.Errorf("%s: fragment %s/%d does not verify", path, f.root.Short(), f.index)
		}
	}
	return nil
}
