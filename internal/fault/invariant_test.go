package fault_test

// The seed-swept invariant harness: every fault plan in
// fault.StandardPlans crossed with a set of kernel seeds, each
// combination driving a full OceanStore pool (clients, sessions,
// primary tiers, secondaries, archival, location mesh) through the
// scheduled faults.  After the chaos window the faults are lifted and
// the system gets a settle period; then the invariants are checked:
//
//  1. No committed update is lost: every payload whose commit callback
//     fired is present in the final committed state.
//  2. Every archived object that still has at least DataShards live
//     fragments is reconstructible.
//  3. Routing and reads terminate or error — callbacks always fire by
//     their virtual-time deadlines; nothing hangs the virtual clock.
//  4. Byte and latency statistics are deterministic for a fixed seed
//     (TestDeterminismRegression below).
//
// Failures are reported through subtests named plan=<name>/seed=<n>,
// so a failing combination is reproducible from the test output alone.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/core"
	"oceanstore/internal/crypt"
	"oceanstore/internal/fault"
	"oceanstore/internal/guid"
	"oceanstore/internal/plaxton"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

const harnessNodes = 24

func harnessPool(seed int64) *core.Pool {
	cfg := core.DefaultPoolConfig()
	cfg.Nodes = harnessNodes
	cfg.Ring.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	cfg.Ring.ArchiveEvery = 6 // a few archives per run, not one per commit
	cfg.BlockSize = 64
	return core.NewPool(seed, cfg)
}

// chaosOutcome is everything one (seed, plan) run produces that the
// invariants (and the determinism regression) inspect.
type chaosOutcome struct {
	stats       simnet.Stats
	committed   []string // markers whose commit callback fired
	finalData   string   // committed object contents after settle
	readsOK     int      // remote reads that returned data
	readsErr    int      // remote reads that errored by deadline
	readsMute   int      // remote reads whose callback never fired (bug)
	doubleFired int      // read callbacks that fired more than once (bug)
	routesOK    int
	routesErr   int
	routeMute   int
	inflight    int // routes outstanding after the run (must be 0)
	archives    []archiveCheck
}

type archiveCheck struct {
	root    guid.GUID
	live    int
	rebuilt bool
	err     error
}

// chaosRun drives one (seed, plan) combination: a writer appending
// markers, a reader doing remote reads, background mesh routes — all
// while the plan's faults fire — then a heal and settle phase, then the
// archive reconstruction probes.
//
// It deliberately takes no *testing.T: the seed sweep fans runs out on
// fault.Sweep's worker pool, where testing's Fatal machinery must not
// be called.  Anomalies come back in the outcome (or the error) and
// are asserted on the main test goroutine.
func chaosRun(seed int64, plan fault.Plan, trace func(simnet.TraceEvent)) (chaosOutcome, error) {
	var out chaosOutcome

	p := harnessPool(seed)
	if trace != nil {
		p.Net.SetTrace(trace)
	}
	client := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := client.Create("chaos", []byte("base;"))
	if err != nil {
		return out, fmt.Errorf("create: %w", err)
	}
	for _, nid := range []simnet.NodeID{8, 10, 12, 14} {
		if err := p.AddReplica(obj, nid); err != nil {
			return out, fmt.Errorf("add replica %d: %w", nid, err)
		}
	}
	ring, _ := p.Ring(obj)
	if _, err := ring.ArchiveNow(); err != nil {
		return out, fmt.Errorf("archive: %w", err)
	}

	stop := p.StartMaintenance(core.MaintenanceConfig{
		Republish:  30 * time.Second,
		MeshRepair: 30 * time.Second,
		TreeRepair: 30 * time.Second,
	})
	defer stop()
	defer archive.NewScheduler(p.Arch, archive.SchedulerConfig{
		Threshold: 4,
	}).Start()()

	eng := fault.Install(p.Net, plan)

	// Writer workload: one append every 10 virtual seconds, each with a
	// distinct marker.  Committed markers must survive to the end.
	writer := client.NewSession(core.ReadYourWrites | core.MonotonicWrites)
	writer.UpdateTimeout = 45 * time.Second
	markers := make(map[update.UpdateID]string)
	writer.OnCommit(func(_ guid.GUID, id update.UpdateID) {
		out.committed = append(out.committed, markers[id])
	})
	for i := 0; i < 12; i++ {
		i := i
		p.K.At(time.Duration(5+10*i)*time.Second, func() {
			m := fmt.Sprintf("u%02d;", i)
			if id, err := writer.Append(obj, []byte(m)); err == nil {
				markers[id] = m
			}
		})
	}

	// Reader workload: remote reads over the lossy network, ReadCommitted
	// so they terminate at the primary tier.  Every callback must fire.
	reader := client.NewSession(core.ReadCommitted)
	const readDeadline = 30 * time.Second
	readsIssued := 0
	for i := 0; i < 9; i++ {
		p.K.At(time.Duration(8+15*i)*time.Second, func() {
			readsIssued++
			fired := false
			reader.RemoteRead(obj, readDeadline, func(data []byte, err error) {
				if fired {
					out.doubleFired++
				}
				fired = true
				if err != nil {
					out.readsErr++
				} else {
					out.readsOK++
				}
			})
		})
	}

	// Routing workload: surrogate routes from varying live nodes.  Every
	// route must terminate (success or error) by its deadline.
	router := p.Router()
	routesIssued := 0
	for i := 0; i < 7; i++ {
		i := i
		p.K.At(time.Duration(10+20*i)*time.Second, func() {
			g := guid.Random(p.K.Rand())
			start := (5 + 3*i) % harnessNodes
			if p.Net.Node(simnet.NodeID(start)).Down() {
				start = 20 // the client node never churns in the standard plans
			}
			routesIssued++
			router.RouteToRoot(start, g, 30*time.Second, func(_ plaxton.RouteResult, err error) {
				if err != nil {
					out.routesErr++
				} else {
					out.routesOK++
				}
			})
		})
	}

	p.K.RunFor(150 * time.Second)

	// Heal: lift the schedule, recover everything, clear partitions.
	eng.Uninstall()
	p.Net.ClearPartitions()
	for i := 0; i < p.Net.Len(); i++ {
		if id := simnet.NodeID(i); p.Net.Node(id).Down() {
			p.Net.Recover(id)
		}
	}
	p.K.RunFor(90 * time.Second)

	out.inflight = router.Inflight()
	out.routeMute = routesIssued - out.routesOK - out.routesErr

	// Final committed state, read locally (the invariant is about the
	// data, not the path).
	final := client.NewSession(core.ReadCommitted)
	data, err := final.Read(obj)
	if err != nil {
		return out, fmt.Errorf("final committed read: %w", err)
	}
	out.finalData = string(data)

	// Archive probes: every archived root with >= DataShards live
	// fragments must reconstruct, via the retrying Retrieve path.
	for _, root := range ring.ArchiveRoots {
		root := root
		chk := archiveCheck{root: root, live: p.Arch.LiveFragments(root)}
		if chk.live >= 4 {
			idx := len(out.archives)
			out.archives = append(out.archives, chk)
			p.Arch.Retrieve(20, root, 2, 2*time.Minute, func(data []byte, err error, _ time.Duration) {
				out.archives[idx].rebuilt = err == nil
				out.archives[idx].err = err
			})
		} else {
			out.archives = append(out.archives, chk)
		}
	}
	p.K.RunFor(3 * time.Minute)

	out.stats = p.Net.Stats()
	if readsIssued != out.readsOK+out.readsErr {
		out.readsMute = readsIssued - out.readsOK - out.readsErr
	}
	return out, nil
}

// sweepResult pairs one combination's outcome with its setup error so
// the pool can carry both back to the assertion loop.
type sweepResult struct {
	out chaosOutcome
	err error
}

func TestInvariantsUnderFaults(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	plans := fault.StandardPlans(harnessNodes)
	// Fan the 20 combinations out on the fork-join pool — one simulator
	// kernel per worker — then assert serially in canonical Combos
	// order, preserving the plan=<name>/seed=<n> subtest naming.
	results := fault.Sweep(plans, seeds, func(plan fault.Plan, seed int64) sweepResult {
		out, err := chaosRun(seed, plan, nil)
		return sweepResult{out, err}
	})
	for i, c := range fault.Combos(plans, seeds) {
		plan, seed, res := c.Plan, c.Seed, results[i]
		t.Run(fmt.Sprintf("plan=%s/seed=%d", plan.Name, seed), func(t *testing.T) {
			if res.err != nil {
				t.Fatal(res.err)
			}
			out := res.out

			// Invariant 1: no committed update lost.
			for _, m := range out.committed {
				if !strings.Contains(out.finalData, m) {
					t.Errorf("plan %q seed %d: committed marker %q missing from final state %q",
						plan.Name, seed, m, out.finalData)
				}
			}
			if len(out.committed) == 0 {
				t.Errorf("plan %q seed %d: no update committed at all (plans must be survivable)",
					plan.Name, seed)
			}

			// Invariant 2: archives with enough live fragments rebuild.
			for _, a := range out.archives {
				if a.live >= 4 && !a.rebuilt {
					t.Errorf("plan %q seed %d: archive %s has %d live fragments but did not reconstruct: %v",
						plan.Name, seed, a.root.Short(), a.live, a.err)
				}
			}

			// Invariant 3: liveness — every callback fired exactly once,
			// nothing left hanging on the virtual clock.
			if out.doubleFired != 0 {
				t.Errorf("plan %q seed %d: %d read callbacks fired twice",
					plan.Name, seed, out.doubleFired)
			}
			if out.readsMute != 0 {
				t.Errorf("plan %q seed %d: %d remote reads never called back",
					plan.Name, seed, out.readsMute)
			}
			if out.routeMute != 0 {
				t.Errorf("plan %q seed %d: %d mesh routes never called back",
					plan.Name, seed, out.routeMute)
			}
			if out.inflight != 0 {
				t.Errorf("plan %q seed %d: %d mesh routes still inflight after deadlines",
					plan.Name, seed, out.inflight)
			}
		})
	}
}

// TestDeterminismRegression is satellite 3: the full stack — pool,
// sessions, faults — must produce byte-identical stats and event
// ordering for a fixed seed, and diverge across seeds.
func TestDeterminismRegression(t *testing.T) {
	run := func(seed int64) (simnet.Stats, []simnet.TraceEvent) {
		var trace []simnet.TraceEvent
		out, err := chaosRun(seed, fault.DemoChaosPlan(harnessNodes), func(ev simnet.TraceEvent) {
			trace = append(trace, ev)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.stats, trace
	}
	s1, t1 := run(7)
	s2, t2 := run(7)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed produced different stats:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(t1, t2) {
		n := len(t1)
		if len(t2) < n {
			n = len(t2)
		}
		for i := 0; i < n; i++ {
			if t1[i] != t2[i] {
				t.Fatalf("same seed: traces diverge at event %d of %d/%d: %+v vs %+v",
					i, len(t1), len(t2), t1[i], t2[i])
			}
		}
		t.Fatalf("same seed: trace lengths diverge (%d vs %d)", len(t1), len(t2))
	}
	s3, _ := run(8)
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced identical stats")
	}
}
