package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"oceanstore/internal/core"
	"oceanstore/internal/crypt"
	"oceanstore/internal/obs"
	"oceanstore/internal/par"
	"oceanstore/internal/workload"
)

// soakOptions are the soak experiment's knobs.
type soakOptions struct {
	nodes       int
	ops         int
	clients     int
	objects     int
	secondaries int
	write       float64
	create      float64
	zipf        float64
	size        int
	think       time.Duration
	open        bool
	arrival     time.Duration
	maxInfl     int
	churn       time.Duration
	downFor     time.Duration
	grow        int
	growAt      time.Duration
	backend     string
	storeDir    string
	scrub       time.Duration
	flush       time.Duration
	introspect  bool
	iepoch      time.Duration
	readSvc     time.Duration
	flash       time.Duration
	flashFor    time.Duration
	flashMass   float64
	flashObjs   int
	diurnal     time.Duration
	nightRate   float64
	hotRotate   time.Duration
}

// soakOpts holds the knobs' values; the initializers are the defaults.
// soakFlagSet echoes them so `osexp all` (which never parses soak
// flags) and `osexp soak` agree.  Defaults are sized so the full
// experiment suite stays fast; a heavy run looks like
//
//	osexp -metrics soak.txt soak 1 -nodes 10000 -ops 1000000
var soakOpts = soakOptions{
	nodes:     256,
	ops:       4000,
	write:     0.3,
	create:    0.01,
	zipf:      1.1,
	size:      256,
	think:     200 * time.Millisecond,
	arrival:   50 * time.Millisecond,
	churn:     time.Minute,
	downFor:   20 * time.Second,
	backend:   "mem",
	scrub:     30 * time.Second,
	flashFor:  2 * time.Minute,
	flashMass: 0.9,
	flashObjs: 4,
	nightRate: 0.25,
}

// soakFlagSet builds the flag set parsed from the arguments after
// `soak [seed]` on the command line.
func soakFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	o := &soakOpts
	fs.IntVar(&o.nodes, "nodes", o.nodes, "server count")
	fs.IntVar(&o.ops, "ops", o.ops, "total operation budget")
	fs.IntVar(&o.clients, "clients", o.clients, "virtual clients (0 = scale with nodes)")
	fs.IntVar(&o.objects, "objects", o.objects, "pre-created objects (0 = scale with nodes)")
	fs.IntVar(&o.secondaries, "secondaries", o.secondaries, "static floating replicas per object (0 = default 4)")
	fs.Float64Var(&o.write, "write", o.write, "write fraction of the mix")
	fs.Float64Var(&o.create, "create", o.create, "create fraction of the mix")
	fs.Float64Var(&o.zipf, "zipf", o.zipf, "Zipf skew for object popularity")
	fs.IntVar(&o.size, "size", o.size, "mean write payload bytes (exponential)")
	fs.DurationVar(&o.think, "think", o.think, "mean per-client think time (closed loop)")
	fs.BoolVar(&o.open, "openloop", o.open, "open-loop arrivals instead of closed-loop")
	fs.DurationVar(&o.arrival, "arrival", o.arrival, "mean interarrival (open loop)")
	fs.IntVar(&o.maxInfl, "maxinflight", o.maxInfl, "backpressure cap on unresolved writes (0 = scale with nodes)")
	fs.DurationVar(&o.churn, "churn", o.churn, "node bounce period (0 disables churn)")
	fs.DurationVar(&o.downFor, "downfor", o.downFor, "how long a bounced node stays down")
	fs.IntVar(&o.grow, "grow", o.grow, "nodes to add mid-run (0 disables growth)")
	fs.DurationVar(&o.growAt, "growat", o.growAt, "virtual time of the growth burst")
	fs.StringVar(&o.backend, "backend", o.backend, "fragment store backend: mem or disk (output is identical either way)")
	fs.StringVar(&o.storeDir, "storedir", o.storeDir, "volume directory for -backend disk (empty = fresh temp dir, removed after)")
	fs.DurationVar(&o.scrub, "scrub", o.scrub, "archival scrub/repair scheduler tick (0 disables maintenance)")
	fs.DurationVar(&o.flush, "flush", o.flush, "store fsync group-commit period (0 = fsync per batch)")
	fs.BoolVar(&o.introspect, "introspect", o.introspect, "arm introspective replica management (promote/demote floating replicas on read heat)")
	fs.DurationVar(&o.iepoch, "iepoch", o.iepoch, "introspection controller epoch (0 = default 10s); shorter reacts faster")
	fs.DurationVar(&o.readSvc, "readsvc", o.readSvc, "modeled read service time per request (0 = auto: 2ms when -introspect or -flash, else synchronous reads; negative forces synchronous)")
	fs.DurationVar(&o.flash, "flash", o.flash, "virtual time a flash crowd starts (0 disables)")
	fs.DurationVar(&o.flashFor, "flashfor", o.flashFor, "flash crowd duration")
	fs.Float64Var(&o.flashMass, "flashmass", o.flashMass, "fraction of draws the flash redirects onto the hot set")
	fs.IntVar(&o.flashObjs, "flashobjs", o.flashObjs, "hot-set size the flash concentrates onto")
	fs.DurationVar(&o.diurnal, "diurnal", o.diurnal, "diurnal period for arrival-intensity modulation (0 disables)")
	fs.Float64Var(&o.nightRate, "nightrate", o.nightRate, "night-time arrival intensity relative to day")
	fs.DurationVar(&o.hotRotate, "hotrotate", o.hotRotate, "hot-spot rotation period for the Zipf mapping (0 disables)")
	return fs
}

// runSoak drives the closed/open-loop traffic engine over a soak
// world: a meshless pool under churn, with reads, full-path writes,
// and object creates drawn from a Zipf mix.
func runSoak(w io.Writer, seed int64, ob *obsink) {
	o := soakOpts
	cfg := core.DefaultSoakConfig(o.nodes)
	if o.clients > 0 {
		cfg.Clients = o.clients
	}
	if o.objects > 0 {
		cfg.Objects = o.objects
	}
	if o.secondaries > 0 {
		cfg.Secondaries = o.secondaries
	}
	if o.maxInfl > 0 {
		cfg.MaxInFlight = o.maxInfl
	}
	cfg.Backend = o.backend
	cfg.ScrubInterval = o.scrub
	cfg.FlushInterval = o.flush
	cfg.Introspect = o.introspect
	if o.iepoch > 0 {
		cfg.IntrospectEpoch = o.iepoch
	}
	switch {
	case o.readSvc > 0:
		cfg.ReadService = o.readSvc
	case o.readSvc == 0 && (o.introspect || o.flash > 0):
		// Auto: the flash-crowd/introspection story needs reads with
		// real service time, or there is no tail to bend.
		cfg.ReadService = 2 * time.Millisecond
	}
	if o.backend == "disk" {
		cfg.StoreDir = o.storeDir
		if cfg.StoreDir == "" {
			dir, err := os.MkdirTemp("", "osexp-blob-")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			cfg.StoreDir = dir
		}
	}
	world, err := core.NewSoakWorld(seed, cfg)
	if err != nil {
		panic(err)
	}
	if err := soakWorld(w, world, cfg, o, ob); err != nil {
		fail("soak: closing the fragment stores: %v", err)
	}
}

// soakWorld runs the engine over a built world, prints the report and
// closes the world.  The close error is the run's outcome, not noise:
// every volume holds acknowledged-but-unwritten records in its
// write-behind tail until Close, so a failed final flush or fsync means
// the report above it describes data that never reached the disk.
func soakWorld(w io.Writer, world *core.SoakWorld, cfg core.SoakConfig, o soakOptions, ob *obsink) error {
	var shape workload.Shape
	if o.diurnal > 0 {
		shape.DiurnalPeriod = o.diurnal
		shape.DiurnalNightRate = o.nightRate
	}
	if o.hotRotate > 0 {
		shape.RotateEvery = o.hotRotate
	}
	if o.flash > 0 {
		shape.FlashAt = o.flash
		shape.FlashFor = o.flashFor
		shape.FlashMass = o.flashMass
		shape.FlashObjects = o.flashObjs
	}
	world.Instrument(ob.registry(), ob.tracer())
	eng := workload.NewEngine(world.Pool.K, workload.EngineConfig{
		Clients:       cfg.Clients,
		Ops:           o.ops,
		Mix:           workload.Mix{WriteFrac: o.write, CreateFrac: o.create},
		Objects:       cfg.Objects,
		ZipfS:         o.zipf,
		MeanWriteSize: o.size,
		ClosedLoop:    !o.open,
		MeanThink:     o.think,
		MeanArrival:   o.arrival,
		RetryBackoff:  time.Second,
		Shape:         shape,
	}, world)
	eng.Instrument(ob.registry())
	if o.churn > 0 {
		world.StartChurn(o.churn, o.downFor)
	}
	if o.grow > 0 {
		world.GrowAt(o.growAt, o.grow)
	}
	eng.Start()
	world.Pool.K.RunWhile(func() bool { return !eng.Done() })

	st := eng.Stats()
	loop := "closed"
	if o.open {
		loop = "open"
	}
	fmt.Fprintf(w, "soak: %d nodes, %d clients, %d objects -> %d, %s loop over %v virtual time\n",
		world.Pool.Net.Len(), cfg.Clients, cfg.Objects, st.Confirmed, loop, world.Pool.K.Now())
	fmt.Fprintf(w, "ops: %d issued, %d ok, %d failed; backpressure: %d shed, %d retries; %d creates\n",
		st.Issued, st.OK, st.Failed, st.Shed, st.Retries, st.Creates)
	lat := eng.Latency()
	fmt.Fprintf(w, "latency: p50 %v  p99 %v  mean %v\n",
		time.Duration(lat.Quantile(0.5)), time.Duration(lat.Quantile(0.99)),
		time.Duration(lat.Mean()))
	rl := eng.ReadLatency()
	fmt.Fprintf(w, "read latency: p50 %v  p99 %v  p999 %v  mean %v (%d reads)\n",
		time.Duration(rl.Quantile(0.5)), time.Duration(rl.Quantile(0.99)),
		time.Duration(rl.Quantile(0.999)), time.Duration(rl.Mean()), rl.Count())
	ns := world.Pool.Net.Stats()
	fmt.Fprintf(w, "traffic: %d msgs, %.1f MB; drops: %d (crash %d, partition %d, loss %d)\n",
		ns.MessagesSent, float64(ns.BytesSent)/1e6, ns.MessagesDropped,
		ns.DroppedByCrash, ns.DroppedByPartition, ns.DroppedByLoss)
	committed := 0
	for _, obj := range world.Objects() {
		if ring, ok := world.Pool.Ring(obj); ok {
			n, _ := ring.PrimaryState().Log.Counts()
			committed += n
		}
	}
	fmt.Fprintf(w, "committed updates across objects: %d\n", committed)
	if ctrl := world.Controller(); ctrl != nil {
		// Controller counters and the replica trajectory are pure
		// functions of the trajectory, so this line rides the
		// determinism comparisons.
		cs := ctrl.Stats()
		traj := ctrl.Trajectory()
		fmt.Fprintf(w, "introspect: %d epochs, %d promotes, %d demotes, %d denied; replicas now %d (epoch min %d max %d); read wire %.1f MB\n",
			cs.Epochs, cs.Promotes, cs.Demotes, cs.Denied,
			ctrl.TierSize(), traj.Min(), traj.Max(),
			float64(world.ReadWireBytes())/1e6)
	}
	if sc := world.Scheduler(); sc != nil {
		// Scheduler counters are pure functions of the trajectory, so
		// this line rides the determinism comparisons like the rest of
		// the report — and must match across mem and disk backends.
		ss := sc.Stats()
		fmt.Fprintf(w, "archival maintenance: scrubbed %d frags (%d bad, %d missing, %.1f MB reread, %d passes); repairs %d ok %d failed %d deferred\n",
			ss.ScrubbedFrags, ss.ScrubBad, ss.ScrubMissing, float64(ss.ScrubBytes)/1e6,
			ss.ScrubPasses, ss.Repairs, ss.RepairFailed, ss.RepairsDeferred)
	}
	if st.InFlight != 0 {
		fmt.Fprintf(w, "WARNING: %d operations still in flight after drain\n", st.InFlight)
	}
	// Memory facts go to stderr, not the report: the report rides the
	// determinism comparisons and RSS/GC numbers are machine noise.
	obs.SampleMem().Report(os.Stderr)
	// And the kernel's occupancy: how many events the run was, and how
	// much of the queue was timeouts waiting to find nothing to do.
	ks := world.Pool.K.Stats()
	fmt.Fprintf(os.Stderr, "kernel: %d events run, %d timers stopped; queue mean %d, peak %d\n",
		ks.Run, ks.Stopped, ks.MeanQueue, ks.PeakQueue)
	// And where the Ed25519 went.  Whether a join found its signature
	// ready, ran it itself or had to wait, and how long the helper was
	// busy, are facts about the host's scheduler, and the par and crypt
	// counters are process-wide; none of them may reach the registry,
	// -metrics, -trace or stdout.  Session.Submit's StartSign is
	// par.Start's only caller, so its tasks are signatures.
	ts := par.Stats()
	created, derived := crypt.SignerStats()
	memoHits, fullVerifies := world.Pool.ACLs.CertVerifies()
	fmt.Fprintf(os.Stderr, "crypto: %d signatures started (%d inline), joins %d ready %d taken %d waited, helper busy %.2f s; signers %d created, %d keys derived; certificates %d memo hits, %d full verifies\n",
		ts.Started, ts.Inline, ts.Ready, ts.Taken, ts.Waited, ts.Busy.Seconds(),
		created, derived, memoHits, fullVerifies)
	// So does the real-I/O rail: its numbers are deterministic too, but
	// they only exist on the disk backend, and the mem-vs-disk ablation
	// compares stdout byte for byte.
	if bs, vols := world.BlobStats(); vols > 0 {
		rounds, joined := world.Pool.Arch.GroupCommits()
		fmt.Fprintf(os.Stderr, "blobstore: %d volumes; %.1f MB written, %.1f MB read, %d puts, %d gets, %d drops, %d fsyncs, %d compactions; %d flushes (%.1f puts/flush), %d group commits (%.1f volumes each)\n",
			vols, float64(bs.BytesWritten)/1e6, float64(bs.BytesRead)/1e6,
			bs.Puts, bs.Gets, bs.Drops, bs.Syncs, bs.Compactions,
			bs.Flushes, float64(bs.Puts)/float64(max(bs.Flushes, 1)),
			rounds, float64(joined)/float64(max(rounds, 1)))
	}
	return world.Close()
}
