package introspect

import (
	"math/rand"
	"reflect"
	"testing"

	"oceanstore/internal/obs"
)

// fakeHost is an in-memory placement fabric: per-object replica node
// sets, per-node budgets, rotating placement — the soak world's shape
// without the world.
type fakeHost struct {
	nodes  int
	budget int
	reps   [][]int // per object: hosting node ids
	hosted []int   // per node: replica count
	cursor int
	// actions counts promote+demote per object, for the flap bound.
	actions []int
}

func newFakeHost(objects, nodes, budget, initial int) *fakeHost {
	h := &fakeHost{
		nodes:   nodes,
		budget:  budget,
		reps:    make([][]int, objects),
		hosted:  make([]int, nodes),
		actions: make([]int, objects),
	}
	for obj := range h.reps {
		for j := 0; j < initial; j++ {
			if !h.place(obj) {
				panic("fakeHost: initial placement over budget")
			}
		}
	}
	return h
}

func (h *fakeHost) place(obj int) bool {
	for tries := 0; tries < h.nodes; tries++ {
		id := h.cursor % h.nodes
		h.cursor++
		if h.hosted[id] >= h.budget {
			continue
		}
		dup := false
		for _, n := range h.reps[obj] {
			if n == id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		h.reps[obj] = append(h.reps[obj], id)
		h.hosted[id]++
		return true
	}
	return false
}

func (h *fakeHost) NumObjects() int      { return len(h.reps) }
func (h *fakeHost) Replicas(obj int) int { return len(h.reps[obj]) }

func (h *fakeHost) Promote(obj int) bool {
	if h.place(obj) {
		h.actions[obj]++
		return true
	}
	return false
}

func (h *fakeHost) Demote(obj int) bool {
	if len(h.reps[obj]) == 0 {
		return false
	}
	id := h.reps[obj][0]
	h.reps[obj] = h.reps[obj][1:]
	h.hosted[id]--
	h.actions[obj]++
	return true
}

// TestControllerProperties: a 20-seed sweep under shifting skewed
// traffic.  After every epoch: no node over budget, no object below
// the durability floor or above the ceiling, and per-object
// promote/demote churn bounded by the cooldown (no flapping).
func TestControllerProperties(t *testing.T) {
	const (
		objects = 32
		nodes   = 16
		budget  = 4
		epochs  = 60
	)
	cfg := ControllerConfig{
		MaxReplicas:      8,
		PromotesPerEpoch: 4,
		CooldownEpochs:   3,
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		host := newFakeHost(objects, nodes, budget, 2)
		c := NewController(cfg, host)
		hotBase := rng.Intn(objects)
		for ep := 0; ep < epochs; ep++ {
			if ep == epochs/2 {
				// The hot set moves mid-run: demand must follow.
				hotBase = rng.Intn(objects)
			}
			for obj := 0; obj < objects; obj++ {
				reads := rng.Intn(5)
				if d := (obj - hotBase + objects) % objects; d < 4 {
					reads = 50 + rng.Intn(150)
				}
				for i := 0; i < reads; i++ {
					c.ObserveRead(obj)
				}
				for i := rng.Intn(3); i > 0; i-- {
					c.ObserveWrite(obj)
				}
			}
			c.Tick()
			for id, hcount := range host.hosted {
				if hcount > budget {
					t.Fatalf("seed %d epoch %d: node %d hosts %d > budget %d", seed, ep, id, hcount, budget)
				}
			}
			for obj := range host.reps {
				if n := len(host.reps[obj]); n < minReplicas || n > cfg.MaxReplicas {
					t.Fatalf("seed %d epoch %d: object %d has %d replicas, want [%d,%d]",
						seed, ep, obj, n, minReplicas, cfg.MaxReplicas)
				}
			}
		}
		// Flap bound: the cooldown spaces any object's actions at least
		// CooldownEpochs apart, so per-object churn is capped.
		maxActions := epochs/cfg.CooldownEpochs + 1
		for obj, a := range host.actions {
			if a > maxActions {
				t.Fatalf("seed %d: object %d flapped %d times over %d epochs (cap %d)",
					seed, obj, a, epochs, maxActions)
			}
		}
		st := c.Stats()
		if st.Promotes == 0 {
			t.Fatalf("seed %d: skewed heat provoked no promotions", seed)
		}
		if st.Epochs != epochs {
			t.Fatalf("seed %d: %d epochs recorded, want %d", seed, st.Epochs, epochs)
		}
	}
}

// TestControllerHysteresisBand: steady traffic whose pressure sits
// between the demote and promote thresholds provokes no action at all.
func TestControllerHysteresisBand(t *testing.T) {
	host := newFakeHost(8, 8, 4, 2)
	c := NewController(ControllerConfig{}, host) // defaults: promote >8, demote <1
	for ep := 0; ep < 50; ep++ {
		for obj := 0; obj < 8; obj++ {
			// 8 reads over 2 replicas: pressure 4, inside the band.
			for i := 0; i < 8; i++ {
				c.ObserveRead(obj)
			}
		}
		c.Tick()
	}
	st := c.Stats()
	if st.Promotes != 0 || st.Demotes != 0 {
		t.Fatalf("in-band load moved replicas: %+v", st)
	}
}

// TestControllerBudgetDenied: when every node is at budget, promotion
// is denied, counted, and leaves no partial state behind.
func TestControllerBudgetDenied(t *testing.T) {
	// 4 objects x 2 replicas on 2 nodes of budget 4: saturated.
	host := newFakeHost(4, 2, 4, 2)
	c := NewController(ControllerConfig{MaxReplicas: 8}, host)
	for ep := 0; ep < 5; ep++ {
		for obj := 0; obj < 4; obj++ {
			for i := 0; i < 100; i++ {
				c.ObserveRead(obj)
			}
		}
		c.Tick()
	}
	st := c.Stats()
	if st.Promotes != 0 {
		t.Fatalf("promotion succeeded on a saturated fabric: %+v", st)
	}
	if st.Denied == 0 {
		t.Fatal("saturated fabric produced no denial counts")
	}
	for id, hcount := range host.hosted {
		if hcount != 4 {
			t.Fatalf("node %d count drifted to %d under denial", id, hcount)
		}
	}
}

// TestControllerWriteChurnDemotes: heavy writes discount read heat —
// an object read and written equally hard sheds replicas instead of
// gaining them.
func TestControllerWriteChurnDemotes(t *testing.T) {
	host := newFakeHost(2, 8, 8, 3)
	c := NewController(ControllerConfig{CooldownEpochs: 1}, host)
	for ep := 0; ep < 20; ep++ {
		for i := 0; i < 60; i++ {
			c.ObserveRead(0)  // pure read heat
			c.ObserveRead(1)  // equal read heat...
			c.ObserveWrite(1) // ...cancelled by write churn
		}
		c.Tick()
	}
	if n := host.Replicas(0); n <= 3 {
		t.Fatalf("read-hot object did not grow: %d replicas", n)
	}
	if n := host.Replicas(1); n >= 3 {
		t.Fatalf("write-churned object did not shrink: %d replicas", n)
	}
	if c.Stats().Demotes == 0 {
		t.Fatal("write churn provoked no demotions")
	}
}

// TestControllerDeterminism: identical observation streams produce
// identical decisions and stats.
func TestControllerDeterminism(t *testing.T) {
	run := func() (ControllerStats, []int) {
		rng := rand.New(rand.NewSource(99))
		host := newFakeHost(16, 8, 4, 2)
		c := NewController(ControllerConfig{}, host)
		for ep := 0; ep < 30; ep++ {
			for obj := 0; obj < 16; obj++ {
				for i := rng.Intn(40); i > 0; i-- {
					c.ObserveRead(obj)
				}
			}
			c.Tick()
		}
		sizes := make([]int, 16)
		for obj := range sizes {
			sizes[obj] = host.Replicas(obj)
		}
		return c.Stats(), sizes
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("object %d replica count diverged: %d vs %d", i, r1[i], r2[i])
		}
	}
}

// TestControllerInstrument: the registry reads counters accumulated
// before Instrument, live updates land afterwards, and the trajectory
// histogram traces the tier's swell.
func TestControllerInstrument(t *testing.T) {
	host := newFakeHost(8, 8, 8, 2)
	c := NewController(ControllerConfig{CooldownEpochs: 1}, host)
	heat := func(epochs int) {
		for ep := 0; ep < epochs; ep++ {
			for obj := 0; obj < 8; obj++ {
				for i := 0; i < 100; i++ {
					c.ObserveRead(obj)
				}
			}
			c.Tick()
		}
	}
	heat(6) // pre-Instrument history the registry must read
	pre := c.Stats()
	if pre.Promotes == 0 {
		t.Fatalf("no pre-Instrument promotions: %+v", pre)
	}
	reg := obs.NewRegistry()
	c.Instrument(reg)
	if got := reg.CounterValue(obs.NodeWide, "introspect", "promote"); got != int64(pre.Promotes) {
		t.Fatalf("late Instrument: registry promote = %d, stats %d", got, pre.Promotes)
	}
	heat(6)
	post := c.Stats()
	if post.Promotes <= pre.Promotes {
		t.Fatalf("no post-Instrument promotions: %+v -> %+v", pre, post)
	}
	if got := reg.CounterValue(obs.NodeWide, "introspect", "promote"); got != int64(post.Promotes) {
		t.Fatalf("live update: registry promote = %d, stats %d", got, post.Promotes)
	}
	traj := c.Trajectory()
	if traj.Count() != int64(post.Epochs) {
		t.Fatalf("trajectory has %d samples, want one per epoch (%d)", traj.Count(), post.Epochs)
	}
	if traj.Max() <= traj.Min() {
		t.Fatalf("heat never swelled the tier: min %d max %d", traj.Min(), traj.Max())
	}
	if int64(c.TierSize()) != traj.Max() {
		// Monotone growth under pure heat: the last tick is the peak.
		t.Fatalf("TierSize %d != trajectory max %d", c.TierSize(), traj.Max())
	}
	const name = "tier_replicas_per_epoch"
	if got, want := histSeries(t, reg, "introspect", name), dumpedAs(t, "introspect", name, traj); !reflect.DeepEqual(got, want) {
		t.Fatalf("dumped trajectory (count %d, %+v) disagrees with private (count %d, %+v)",
			got.Count, *got.Hist, want.Count, *want.Hist)
	}
}

// histSeries is the node-wide histogram (layer, name) as reg dumps it,
// read through Snapshot, which creates no series.
func histSeries(t *testing.T, reg *obs.Registry, layer, name string) obs.Metric {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Kind == "hist" && m.Key == (obs.Key{Layer: layer, Name: name}) {
			return m
		}
	}
	t.Fatalf("the dump has no %s/%s histogram", layer, name)
	return obs.Metric{}
}

// dumpedAs is h as a registry holding nothing else dumps it.
func dumpedAs(t *testing.T, layer, name string, h *obs.Histogram) obs.Metric {
	t.Helper()
	reg := obs.NewRegistry()
	reg.HistogramSource(layer, name, h)
	return histSeries(t, reg, layer, name)
}

// TestControllerConfigClamps: out-of-range fields resolve to a usable
// loop rather than passing through.
func TestControllerConfigClamps(t *testing.T) {
	cfg := ControllerConfig{
		Alpha:        1.5, // >1: replaced by the default
		PromoteAbove: 4,
		DemoteBelow:  9,  // above PromoteAbove: forced back under it
		MaxReplicas:  -2, // unset: takes the default
	}.withDefaults()
	if cfg.Alpha != 0.5 {
		t.Fatalf("Alpha = %v, want default 0.5", cfg.Alpha)
	}
	if cfg.DemoteBelow >= cfg.PromoteAbove {
		t.Fatalf("clamp left no band: demote %v >= promote %v", cfg.DemoteBelow, cfg.PromoteAbove)
	}
	if cfg.MaxReplicas != 64 {
		t.Fatalf("MaxReplicas %d should take the default 64", cfg.MaxReplicas)
	}
}

// TestControllerZeroReplicaPressure: an object the host reports as
// having no replicas (e.g. its ring vanished) must not divide by zero
// and must not be demoted below the floor.
func TestControllerZeroReplicaPressure(t *testing.T) {
	host := newFakeHost(2, 4, 4, 0) // zero replicas everywhere
	c := NewController(ControllerConfig{}, host)
	for i := 0; i < 20; i++ {
		c.ObserveRead(0)
	}
	c.Tick()
	if st := c.Stats(); st.Demotes != 0 {
		t.Fatalf("demoted below an empty tier: %+v", st)
	}
	// The heat still counts: the replica-less object promotes.
	if host.Replicas(0) == 0 {
		t.Fatal("hot replica-less object was not promoted")
	}
}

// TestControllerDefaults: the zero config resolves to a sane band.
func TestControllerDefaults(t *testing.T) {
	c := NewController(ControllerConfig{}, newFakeHost(1, 1, 1, 1))
	cfg := c.cfg
	if cfg.DemoteBelow >= cfg.PromoteAbove {
		t.Fatalf("no hysteresis band: demote %v >= promote %v", cfg.DemoteBelow, cfg.PromoteAbove)
	}
	if cfg.MaxReplicas < minReplicas {
		t.Fatalf("bad replica bounds: [%d,%d]", minReplicas, cfg.MaxReplicas)
	}
	if cfg.CooldownEpochs < 1 || cfg.PromotesPerEpoch < 1 {
		t.Fatalf("rate limits unset: %+v", cfg)
	}
}
