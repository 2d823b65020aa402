package scenario

import (
	"math/rand"
	"time"

	"oceanstore/internal/audit"
	"oceanstore/internal/core"
	"oceanstore/internal/crypt"
	"oceanstore/internal/fault"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/simnet"
)

// poolWorld stands up a full deployment (mesh-less for speed) with a
// few objects and floating replicas — the worlds where audits share
// the stage with churn, maintenance and the replica tier.
type poolWorld struct {
	pool *core.Pool
	objs []guid.GUID
}

func newPoolWorld(o Options, nodes, objects, replicasPer int) *poolWorld {
	cfg := core.DefaultPoolConfig()
	cfg.Nodes = nodes
	cfg.NoMesh = true
	pool := core.NewPool(o.Seed, cfg)
	pool.Instrument(o.Reg, o.Tracer)
	owner := crypt.NewSigner(rand.New(rand.NewSource(o.Seed ^ 0x0cea)))
	key := crypt.NewBlockKey(rand.New(rand.NewSource(o.Seed ^ 0x5707e)))
	w := &poolWorld{pool: pool}
	for i := 0; i < objects; i++ {
		name := string(rune('a'+i)) + "-object"
		obj, err := pool.CreateObject(owner, name, []byte("initial content of "+name), key, nil)
		if err != nil {
			panic(err)
		}
		for j := 0; j < replicasPer; j++ {
			node := simnet.NodeID((7 + i*replicasPer + j) % nodes)
			if err := pool.AddReplica(obj, node); err != nil {
				panic(err)
			}
		}
		w.objs = append(w.objs, obj)
	}
	return w
}

// checkPrefixes records, as violations, every secondary whose committed
// log is not a prefix of its primary's.
func (w *poolWorld) checkPrefixes(r *Result) {
	for _, obj := range w.objs {
		ring, _ := w.pool.Ring(obj)
		for _, p := range ring.PrefixProblems() {
			r.violate("%s", p)
		}
	}
}

// runChurnDuringAudit: staggered churn takes a third of the servers
// down and back while bit rot drizzles on — the auditor must keep
// repairing through the flux without mistaking downtime for damage.
func runChurnDuringAudit(o Options) Result {
	r := Result{Scenario: "churn-during-audit", Defense: "auditor", Seed: o.Seed, Armed: o.Defense}
	w := newPoolWorld(o, 32, 3, 2)
	pool := w.pool
	var a *audit.Auditor
	if o.Defense {
		a = pool.StartAudit(audit.Config{Interval: time.Minute})
	}
	var churned []simnet.NodeID
	for i := 8; i < 20; i++ {
		churned = append(churned, simnet.NodeID(i))
	}
	plan := fault.NewPlan("churn-rot").
		ChurnNodes(churned, 20*time.Minute, 2*time.Minute, 15*time.Minute).
		BitRot(0.2, 3*time.Minute, 10*time.Minute, 2*time.Hour)
	eng := fault.Install(pool.Net, *plan)
	eng.BindData(pool.Arch)
	pool.Run(6 * time.Hour)

	damaged := int64(len(pool.Arch.DamagedRoots()))
	bad := int64(pool.Arch.CountBadFragments())
	var st audit.Stats
	if a != nil {
		st = a.Stats()
	}
	r.metric("rot_strikes", int64(eng.DataHits))
	r.metric("churned_nodes", int64(len(churned)))
	r.metric("damaged_roots", damaged)
	r.metric("bad_fragments", bad)
	auditStatMetrics(&r, st)

	if eng.DataHits == 0 {
		r.violate("the drizzle never struck — scenario setup broken")
	}
	if damaged != 0 {
		r.violate("%d roots still damaged after churn settled", damaged)
	}
	if bad != 0 {
		r.violate("%d rotted fragments still on disk", bad)
	}
	if st.Detections == 0 {
		r.violate("no damage was ever detected")
	}
	if st.Repairs == 0 {
		r.violate("no repair ever ran")
	}
	if a != nil {
		// Downtime must never read as guilt: a node may only be suspected
		// if its disk actually took rot strikes.  (Suspecting a store that
		// demonstrably keeps rotting is correct — its disk is unreliable —
		// but a node whose only sin was being down produced no replies,
		// which is inconclusive, not damning.)
		suspects := a.Suspected()
		r.metric("suspects", int64(len(suspects)))
		for _, s := range suspects {
			if eng.DataHitNodes[s] == 0 {
				r.violate("node %d suspected without a single rot strike — downtime read as guilt", s)
			}
		}
	}
	w.checkPrefixes(&r)
	return r
}

// runReplicaTamper: untrusted servers silently corrupt their
// secondaries' committed state.  Digest sampling must catch the
// mismatch and restore the authoritative state; without the auditor
// the corruption persists indefinitely.
func runReplicaTamper(o Options) Result {
	r := Result{Scenario: "replica-tamper", Defense: "replica-auditor", Seed: o.Seed, Armed: o.Defense}
	w := newPoolWorld(o, 24, 2, 3)
	pool := w.pool
	var ra *audit.ReplicaAuditor
	if o.Defense {
		ra = pool.StartReplicaAudit(audit.Config{Interval: time.Minute})
	}
	// At t=30m one secondary of each object goes bad.
	pool.K.At(30*time.Minute, func() {
		for _, obj := range w.objs {
			ring, _ := pool.Ring(obj)
			secs := ring.Secondaries()
			sec := secs[len(secs)/2]
			sec.Rep.TamperBase(func(v *object.Version) {
				if len(v.Blocks) > 0 && len(v.Blocks[0].CT) > 0 {
					v.Blocks[0].CT[0] ^= 0xFF
				}
			})
		}
	})
	pool.Run(3 * time.Hour)

	var st audit.ReplicaStats
	if ra != nil {
		st = ra.Stats()
	}
	var corrupt int64
	for _, obj := range w.objs {
		ring, _ := pool.Ring(obj)
		pd := ring.PrimaryDigest()
		for _, sec := range ring.Secondaries() {
			sd, ok := ring.SecondaryDigest(sec.Node)
			if ok && sd.Height == pd.Height && sd.Sum != pd.Sum {
				corrupt++
			}
		}
	}
	r.metric("tampered", int64(len(w.objs)))
	r.metric("corrupt_at_end", corrupt)
	r.metric("checks", st.Checks)
	r.metric("detections", st.Detections)
	r.metric("repairs", st.Repairs)

	if corrupt != 0 {
		r.violate("%d secondaries still serve corrupted state", corrupt)
	}
	if st.Detections < int64(len(w.objs)) {
		r.violate("only %d of %d tampered replicas detected", st.Detections, len(w.objs))
	}
	if st.Repairs < int64(len(w.objs)) {
		r.violate("only %d of %d tampered replicas repaired", st.Repairs, len(w.objs))
	}
	w.checkPrefixes(&r)
	return r
}
