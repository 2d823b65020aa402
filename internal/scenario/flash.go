package scenario

import (
	"time"

	"oceanstore/internal/core"
	"oceanstore/internal/simnet"
	"oceanstore/internal/workload"
)

// flashP99Bound is the read-latency invariant: with introspection
// promoting replicas into the hot set, the p99 read stays under this
// bound; with a static replica set the flash's queueing tail blows
// through it.
const flashP99Bound = 600 * time.Millisecond

// runFlashCrowd: a flash crowd concentrates ninety percent of all
// reads onto one object for two minutes.  The object's static
// floating replicas saturate — every read queues behind ReadService at
// one of three servers — unless the introspective controller notices
// the heat and widens the replica set while the crowd lasts.
func runFlashCrowd(o Options) Result {
	r := Result{Scenario: "flash-crowd", Defense: "introspection", Seed: o.Seed, Armed: o.Defense}
	cfg := core.DefaultSoakConfig(64)
	cfg.Objects = 16
	cfg.Secondaries = 2
	cfg.Clients = 64
	cfg.ReadService = 50 * time.Millisecond
	cfg.NodeBudget = 6
	cfg.Introspect = o.Defense
	cfg.IntrospectEpoch = 2 * time.Second
	cfg.IntrospectCfg.PromotesPerEpoch = 16
	cfg.IntrospectCfg.CooldownEpochs = 2
	world, err := core.NewSoakWorld(o.Seed, cfg)
	if err != nil {
		panic(err)
	}
	defer world.Close()
	world.Instrument(o.Reg, o.Tracer)
	eng := workload.NewEngine(world.Pool.K, workload.EngineConfig{
		Clients:       cfg.Clients,
		Ops:           24000,
		Mix:           workload.Mix{WriteFrac: 0.05},
		Objects:       cfg.Objects,
		ZipfS:         1.1,
		MeanWriteSize: 128,
		ClosedLoop:    true,
		MeanThink:     20 * time.Millisecond,
		RetryBackoff:  time.Second,
		Shape: workload.Shape{
			FlashAt:      30 * time.Second,
			FlashFor:     2 * time.Minute,
			FlashMass:    0.9,
			FlashObjects: 1,
		},
	}, world)
	eng.Instrument(o.Reg)
	eng.Start()
	world.Pool.K.RunWhile(func() bool { return !eng.Done() })

	p99 := time.Duration(eng.ReadLatency().Quantile(0.99))
	maxHosted := 0
	for id := 0; id < world.Pool.Net.Len(); id++ {
		if h := world.HostedAt(simnet.NodeID(id)); h > maxHosted {
			maxHosted = h
		}
	}
	r.metric("reads", eng.ReadLatency().Count())
	r.metric("read_p99_ms", int64(p99/time.Millisecond))
	r.metric("max_hosted_per_node", int64(maxHosted))
	if ctrl := world.Controller(); ctrl != nil {
		cs := ctrl.Stats()
		r.metric("promotes", int64(cs.Promotes))
		r.metric("demotes", int64(cs.Demotes))
		r.metric("promote_denied", int64(cs.Denied))
		r.metric("tier_peak", ctrl.Trajectory().Max())
		if cs.Promotes == 0 {
			r.violate("introspection armed but the flash provoked no promotions")
		}
		if cs.Demotes == 0 {
			r.violate("introspection armed but the crowd's release provoked no demotions")
		}
	}
	if maxHosted > cfg.NodeBudget {
		r.violate("node budget exceeded: %d replicas on one node (budget %d)", maxHosted, cfg.NodeBudget)
	}
	if p99 > flashP99Bound {
		r.violate("flash crowd p99 read latency %v exceeds %v", p99, flashP99Bound)
	}
	for _, p := range world.Problems() {
		r.violate("%s", p)
	}
	return r
}
