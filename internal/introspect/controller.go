// Introspective replica control loop (§4.7.2).
//
// The paper's introspection layer watches its own traffic and adapts:
// objects under sustained read heat grow extra floating replicas close
// to their readers; cold or write-churned objects shed them.
// Controller is the replica-management policy, and the only one: it
// accumulates per-object read/write observations between virtual-time
// epochs, smooths them with an EWMA, and each Tick asks its Host to
// promote the hottest and demote the coldest objects, under
// hysteresis, cooldowns, and per-epoch rate limits.
//
// Determinism is a hard constraint: the controller draws no
// randomness, never reads the wall clock, and iterates objects in a
// fully ordered fashion (pressure descending, object index ascending
// on ties), so two runs with the same observation stream make the same
// decisions.  Everything here runs on kernel ticks, in the kernel's one
// (time, seq) event order.
package introspect

import (
	"sort"

	"oceanstore/internal/obs"
)

// ControllerConfig tunes the control loop.  The promote/demote
// thresholds are in smoothed reads-per-epoch-per-replica; keeping
// PromoteAbove well above DemoteBelow is what gives the loop its
// hysteresis band.
type ControllerConfig struct {
	// Alpha is the EWMA smoothing factor per epoch (0 < a <= 1,
	// default 0.5).  Higher reacts faster, lower resists noise.
	Alpha float64
	// PromoteAbove is the per-replica read pressure above which an
	// object is a promotion candidate (default 8).
	PromoteAbove float64
	// DemoteBelow is the pressure below which a replica is a demotion
	// candidate (default 1).  Must sit below PromoteAbove.
	DemoteBelow float64
	// WriteWeight discounts read heat by write churn: pressure =
	// (readEWMA - WriteWeight*writeEWMA) / replicas.  Write-heavy
	// objects are expensive to replicate (every update fans out), so
	// churn counts against promotion (default 2).
	WriteWeight float64
	// MinReplicas is the durability floor: demotion never takes an
	// object below it (default 1).
	MinReplicas int
	// MaxReplicas caps promotion per object (default 64).
	MaxReplicas int
	// PromotesPerEpoch and DemotesPerEpoch rate-limit how many
	// placement changes one Tick may make (defaults 4 and 4).
	PromotesPerEpoch int
	DemotesPerEpoch  int
	// CooldownEpochs is how many epochs an object must sit out after
	// any promotion or demotion before being reconsidered — the
	// anti-flapping guard (default 4).
	CooldownEpochs int
}

// withDefaults fills zero fields.
func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.5
	}
	if c.PromoteAbove <= 0 {
		c.PromoteAbove = 8
	}
	if c.DemoteBelow <= 0 {
		c.DemoteBelow = 1
	}
	if c.DemoteBelow >= c.PromoteAbove {
		c.DemoteBelow = c.PromoteAbove / 8
	}
	if c.WriteWeight < 0 {
		c.WriteWeight = 0
	} else if c.WriteWeight == 0 {
		c.WriteWeight = 2
	}
	if c.MinReplicas <= 0 {
		c.MinReplicas = 1
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 64
	}
	if c.MaxReplicas < c.MinReplicas {
		c.MaxReplicas = c.MinReplicas
	}
	if c.PromotesPerEpoch <= 0 {
		c.PromotesPerEpoch = 4
	}
	if c.DemotesPerEpoch <= 0 {
		c.DemotesPerEpoch = 4
	}
	if c.CooldownEpochs <= 0 {
		c.CooldownEpochs = 4
	}
	return c
}

// Host is the placement machinery the controller steers.  The
// controller decides WHICH objects change tier; the host decides
// WHERE replicas land and owns per-node capacity budgets — Promote
// returns false when no node has budget (or placement is otherwise
// impossible), and the controller counts the denial without charging
// the object a cooldown.
type Host interface {
	// NumObjects reports the current universe size.  It may grow
	// between ticks; it must never shrink.
	NumObjects() int
	// Replicas reports the object's current floating-replica count.
	Replicas(obj int) int
	// Promote adds one floating replica; reports whether it could.
	Promote(obj int) bool
	// Demote removes one floating replica; reports whether it could.
	Demote(obj int) bool
}

// ControllerStats is a snapshot of the loop's counters.
type ControllerStats struct {
	Epochs   int // Ticks run
	Promotes int // successful promotions
	Demotes  int // successful demotions
	Denied   int // promotions refused by the host (budget exhausted)
}

// Controller is the introspective replica-management loop.  Not
// safe for concurrent use; drive it from one kernel.
type Controller struct {
	cfg  ControllerConfig
	host Host

	reads, writes     []int64   // raw counts this epoch
	readEW, writeEW   []float64 // smoothed per-epoch rates
	cooldown          []int     // epoch until which the object sits out
	stats             ControllerStats
	lastTierSizeTotal int

	// traj collects the per-epoch tier size even without a registry,
	// so reports can trace the swell-and-settle curve regardless.
	traj *obs.Histogram

	// Registry handles, nil (no-op) until Instrument.
	cPromote, cDemote, cDenied *obs.Counter
	gReplicas                  *obs.Gauge
	hTraj                      *obs.Histogram
}

// NewController builds the loop around a host.  Call ObserveRead and
// ObserveWrite as traffic resolves and Tick once per epoch.
func NewController(cfg ControllerConfig, host Host) *Controller {
	return &Controller{cfg: cfg.withDefaults(), host: host, traj: new(obs.Histogram)}
}

// Config reports the effective (defaulted) configuration.
func (c *Controller) Config() ControllerConfig { return c.cfg }

// grow extends the per-object state to cover n objects.
func (c *Controller) grow(n int) {
	for len(c.reads) < n {
		c.reads = append(c.reads, 0)
		c.writes = append(c.writes, 0)
		c.readEW = append(c.readEW, 0)
		c.writeEW = append(c.writeEW, 0)
		c.cooldown = append(c.cooldown, 0)
	}
}

// ObserveRead records one read of obj this epoch.
func (c *Controller) ObserveRead(obj int) {
	c.grow(obj + 1)
	c.reads[obj]++
}

// ObserveWrite records one write of obj this epoch.
func (c *Controller) ObserveWrite(obj int) {
	c.grow(obj + 1)
	c.writes[obj]++
}

// pressure is the smoothed per-replica demand signal for obj.
func (c *Controller) pressure(obj, replicas int) float64 {
	if replicas < 1 {
		replicas = 1
	}
	return (c.readEW[obj] - c.cfg.WriteWeight*c.writeEW[obj]) / float64(replicas)
}

// candidate pairs an object with its pressure for the sorted passes.
type candidate struct {
	obj int
	p   float64
}

// Tick closes one epoch: folds the raw counts into the EWMAs, then
// runs the promote pass (hottest first) and the demote pass (coldest
// first), each bounded by its rate limit, the replica floor/ceiling,
// and per-object cooldowns.
func (c *Controller) Tick() {
	c.grow(c.host.NumObjects())
	c.stats.Epochs++
	a := c.cfg.Alpha
	for i := range c.readEW {
		c.readEW[i] = a*float64(c.reads[i]) + (1-a)*c.readEW[i]
		c.writeEW[i] = a*float64(c.writes[i]) + (1-a)*c.writeEW[i]
		c.reads[i] = 0
		c.writes[i] = 0
	}

	var promo, demo []candidate
	total := 0
	for obj := range c.readEW {
		reps := c.host.Replicas(obj)
		total += reps
		if c.cooldown[obj] >= c.stats.Epochs {
			continue
		}
		p := c.pressure(obj, reps)
		if p > c.cfg.PromoteAbove && reps < c.cfg.MaxReplicas {
			promo = append(promo, candidate{obj, p})
		} else if p < c.cfg.DemoteBelow && reps > c.cfg.MinReplicas {
			demo = append(demo, candidate{obj, p})
		}
	}
	// Hottest first; ties broken by object index so ordering is total.
	sort.Slice(promo, func(i, j int) bool {
		if promo[i].p != promo[j].p {
			return promo[i].p > promo[j].p
		}
		return promo[i].obj < promo[j].obj
	})
	sort.Slice(demo, func(i, j int) bool {
		if demo[i].p != demo[j].p {
			return demo[i].p < demo[j].p
		}
		return demo[i].obj < demo[j].obj
	})

	promoted := 0
	for _, cand := range promo {
		if promoted >= c.cfg.PromotesPerEpoch {
			break
		}
		if c.host.Promote(cand.obj) {
			promoted++
			total++
			c.stats.Promotes++
			c.cPromote.Inc()
			c.cooldown[cand.obj] = c.stats.Epochs + c.cfg.CooldownEpochs
		} else {
			// Budget denial: count it, but leave the object eligible —
			// capacity may free up next epoch.
			c.stats.Denied++
			c.cDenied.Inc()
		}
	}
	demoted := 0
	for _, cand := range demo {
		if demoted >= c.cfg.DemotesPerEpoch {
			break
		}
		if c.host.Demote(cand.obj) {
			demoted++
			total--
			c.stats.Demotes++
			c.cDemote.Inc()
			c.cooldown[cand.obj] = c.stats.Epochs + c.cfg.CooldownEpochs
		}
	}

	c.lastTierSizeTotal = total
	c.gReplicas.Set(float64(total))
	c.traj.Observe(int64(total))
	c.hTraj.Observe(int64(total))
}

// Stats returns a copy of the loop's counters.
func (c *Controller) Stats() ControllerStats { return c.stats }

// TierSize reports the total floating-replica count as of the last
// Tick.
func (c *Controller) TierSize() int { return c.lastTierSizeTotal }

// Trajectory exposes the replica-count-per-epoch histogram: one sample
// per Tick, so its min/max/mean trace how far the tier swelled and
// settled.
func (c *Controller) Trajectory() *obs.Histogram { return c.traj }

// Instrument registers the controller's counters, the current tier
// size gauge, and the per-epoch replica trajectory histogram under
// layer "introspect" on reg.  Values accumulated before the call are
// back-filled.
func (c *Controller) Instrument(reg *obs.Registry) {
	const layer = "introspect"
	c.cPromote = reg.Counter(obs.NodeWide, layer, "promote")
	c.cPromote.Add(int64(c.stats.Promotes))
	c.cDemote = reg.Counter(obs.NodeWide, layer, "demote")
	c.cDemote.Add(int64(c.stats.Demotes))
	c.cDenied = reg.Counter(obs.NodeWide, layer, "promote_denied")
	c.cDenied.Add(int64(c.stats.Denied))
	c.gReplicas = reg.Gauge(obs.NodeWide, layer, "tier_replicas")
	c.gReplicas.Set(float64(c.lastTierSizeTotal))
	c.hTraj = reg.Histogram(obs.NodeWide, layer, "tier_replicas_per_epoch")
	c.hTraj.Merge(c.traj)
}
