package main

import (
	"time"

	"oceanstore/internal/core"
	"oceanstore/internal/workload"
)

// spec is one workload: a world shape, a traffic shape, and the op
// budget a second of -seconds buys.  Op counts — not wall deadlines —
// bound a run, because every virtual-time metric and every count must
// be an exact function of (workload, seed, seconds).
type spec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// repeats it; README has the paragraph).
	Why string
	// Nodes sizes the world through core.DefaultSoakConfig.
	Nodes int
	// OpsPerSecond is the op budget per second of -seconds, sized so
	// the measured phase lasted about that long on the box the
	// baselines in README came from.
	OpsPerSecond int
	// Registry attaches the obs registry before the run and puts the
	// full metrics dump inside total_s, as `osexp -metrics` does.
	// Traced runs attach one regardless: the layers' counters live
	// there.
	Registry bool
	// ChurnEvery/ChurnDown arm SoakWorld.StartChurn.
	ChurnEvery, ChurnDown time.Duration
	// SuiteOnly keeps the workload out of BENCHMARK.json: the suite
	// runs it, a driver does not.
	SuiteOnly bool
	// world edits DefaultSoakConfig(Nodes); traffic edits the common
	// engine shape (closed loop, 30% writes, 1% creates, Zipf 1.1).
	world   func(*core.SoakConfig)
	traffic func(*workload.EngineConfig)
}

var workloads = []spec{
	{
		Name:         "steady-10k",
		Why:          "the bare session, byz, dtree, epidemic hot loop on 10k nodes; archive, obs and construction are idle, so only kernel/simnet/byz/crypto work shows",
		Nodes:        10000,
		OpsPerSecond: 12500,
	},
	{
		Name:         "scale-100k",
		Why:          "100k nodes with the registry attached and the full metrics dump timed: construction, memclr, dump and map-probe costs only appear at this node count",
		Nodes:        100000,
		OpsPerSecond: 5000,
		Registry:     true,
	},
	{
		Name:         "archive-disk-1k",
		Why:          "commit-coupled archival (every commit) onto real blobstore volumes: the only workload where erasure coding, Merkle proofs and disk I/O dominate",
		Nodes:        1000,
		OpsPerSecond: 4000,
		world: func(c *core.SoakConfig) {
			c.Clients = 256
			c.MaxInFlight = 256
			c.ArchiveEvery = 1
			c.Backend = "disk"
			c.ScrubInterval = 30 * time.Second
			// Group commit: per-batch fsync made the same run swing
			// 35 s <-> 48 s on a virtual disk, so fsyncs are counted
			// (blobstore.syncs), not left to dominate the wall clock.
			c.FlushInterval = 5 * time.Second
		},
		traffic: func(e *workload.EngineConfig) { e.Mix.WriteFrac = 0.5 },
	},
	flashCrowd,
	flashChurn,
}

// flashCrowd is the read-path workload.  Its traffic and world are the
// flash-churn workload's; only the node bounces are left out, for the
// reason given at flashChurn.
var flashCrowd = spec{
	Name:         "flash-crowd-10k",
	Why:          "open-loop readers through the modelled read queue, a flash crowd onto 8 objects and the introspective controller: the only workload with read latency, promotions and read wire bytes",
	Nodes:        10000,
	OpsPerSecond: 20000,
	world: func(c *core.SoakConfig) {
		c.Clients = 1000
		c.ReadService = 50 * time.Millisecond
		c.Introspect = true
		c.IntrospectEpoch = 2 * time.Second
	},
	traffic: func(e *workload.EngineConfig) {
		// Open loop: flash-crowd readers are independent users.  In
		// virtual time the generator is never late, so lateness is
		// reported as the shed count (workload.shed).
		e.ClosedLoop = false
		e.MeanArrival = time.Millisecond
		e.Mix.WriteFrac = 0.1
		e.Shape = workload.Shape{
			FlashAt:      time.Minute,
			FlashFor:     2 * time.Minute,
			FlashMass:    0.9,
			FlashObjects: 8,
		}
	},
}

// flashChurn adds StartChurn(1m, 20s) and runs long enough (8m40s
// virtual) to see what the bounces do.  At HEAD that is: the hottest
// object's primary tier wedges for good at the second bounce, 4% of
// writes time out in lock-step bursts, and the host cost of a commit
// on a tier with a recovered member keeps growing — by a factor that
// depends on the seed (README, "surfaced, not fixed").  For one seed
// the run is exact and repeatable, so -compare can show a fix.  But ops
// fail on every seed, and even a bounce schedule that wedges nothing
// spread throughput by 43% across ten seeds, so it cannot meet a
// driver's contract and is not in BENCHMARK.json.
var flashChurn = func() spec {
	sp := flashCrowd
	sp.Name = "flash-churn-10k"
	sp.Why = "flash-crowd-10k plus a node bounce a minute: the only workload that sees view changes, dropped messages and failed writes"
	sp.ChurnEvery, sp.ChurnDown = time.Minute, 20*time.Second
	sp.SuiteOnly = true
	return sp
}()

func findWorkload(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// soakConfig is the world configuration; storeDir is used only by the
// disk backend.
func (sp spec) soakConfig(storeDir string) core.SoakConfig {
	cfg := core.DefaultSoakConfig(sp.Nodes)
	if sp.world != nil {
		sp.world(&cfg)
	}
	if cfg.Backend == "disk" {
		cfg.StoreDir = storeDir
	}
	return cfg
}

// engineConfig is the traffic shape over a world built from cfg.
func (sp spec) engineConfig(cfg core.SoakConfig, ops int) workload.EngineConfig {
	ec := workload.EngineConfig{
		Clients:       cfg.Clients,
		Ops:           ops,
		Mix:           workload.Mix{WriteFrac: 0.3, CreateFrac: 0.01},
		Objects:       cfg.Objects,
		ZipfS:         1.1,
		MeanWriteSize: 256,
		ClosedLoop:    true,
		MeanThink:     200 * time.Millisecond,
		RetryBackoff:  time.Second,
	}
	if sp.traffic != nil {
		sp.traffic(&ec)
	}
	return ec
}
