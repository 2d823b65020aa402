package scenario

import (
	"bytes"
	"math/rand"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/audit"
	"oceanstore/internal/fault"
	"oceanstore/internal/guid"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// archWorld is the bare archival battleground most scenarios share: a
// kernel, a network of stores, and a few archives to defend, each
// archive's root beside the bytes archived under it.
type archWorld struct {
	k     *sim.Kernel
	net   *simnet.Network
	svc   *archive.Service
	cfg   archive.Config
	roots []guid.GUID
	data  [][]byte
}

// newArchWorld builds nodes stores across domains holding `archives`
// erasure-coded objects.
func newArchWorld(o Options, nodes, domains, archives int) *archWorld {
	k := sim.NewKernel(o.Seed)
	net := simnet.New(k, simnet.Config{BaseLatency: 10 * time.Millisecond})
	ns := net.AddRandomNodes(nodes, 100, domains)
	svc := archive.NewService(net, ns)
	net.Instrument(o.Reg, o.Tracer)
	svc.Instrument(o.Reg, o.Tracer)
	w := &archWorld{k: k, net: net, svc: svc, cfg: archive.Config{DataShards: 4, TotalFragments: 16}}
	for i := 0; i < archives; i++ {
		data := make([]byte, 1200)
		rand.New(rand.NewSource(o.Seed + int64(i)*7919)).Read(data)
		root, err := svc.Archive(data, w.cfg, nil)
		if err != nil {
			panic(err)
		}
		w.roots = append(w.roots, root)
		w.data = append(w.data, data)
	}
	return w
}

// checkAnswers records a violation for each archive that no longer
// decodes to the bytes archived under its root.  It reads the stores of
// the root's holders directly, so the check sends no message, and
// decodes the fragments they hold that pass Verify, one per index.
func (w *archWorld) checkAnswers(r *Result) {
	for i, root := range w.roots {
		var frags []archive.StoredFragment
		have := make(map[int]bool)
		for _, h := range w.svc.HoldersOf(root) {
			st := w.svc.Store(h)
			for _, idx := range archive.HeldIndexes(st, root) {
				if sf, ok := st.Get(root, idx); ok && sf.Verify() && !have[idx] {
					have[idx] = true
					frags = append(frags, sf)
				}
			}
		}
		if got, err := archive.Decode(frags, w.cfg); err != nil || !bytes.Equal(got, w.data[i]) {
			r.violate("archive %s does not decode to the bytes archived (%d verified fragments held: %v)",
				root.Short(), len(frags), err)
		}
	}
}

// auditor arms the fragment auditor with the scenario's config.
func (w *archWorld) auditor(o Options, cfg audit.Config) *audit.Auditor {
	a := audit.New(w.net, w.svc, cfg)
	a.Instrument(o.Reg, o.Tracer)
	a.Start()
	return a
}

// auditCfg is the suite's common audit cadence; Options.AuditInterval
// overrides the default rate for sweeps.
func auditCfg(o Options) audit.Config {
	iv := o.AuditInterval
	if iv <= 0 {
		iv = time.Minute
	}
	return audit.Config{Interval: iv}
}

// auditStatMetrics appends the auditor counters every report shares.
func auditStatMetrics(r *Result, st audit.Stats) {
	r.metric("polls", st.Polls)
	r.metric("votes_served", st.VotesServed)
	r.metric("agrees", st.Agrees)
	r.metric("disagrees", st.Disagrees)
	r.metric("missing", st.Missing)
	r.metric("inconclusive", st.Inconclusive)
	r.metric("detections", st.Detections)
	r.metric("repairs", st.Repairs)
}

// runBitRotDrizzle: background rot must be detected and repaired; with
// the auditor off the damage simply accumulates forever.
func runBitRotDrizzle(o Options) Result {
	r := Result{Scenario: "bitrot-drizzle", Defense: "auditor", Seed: o.Seed, Armed: o.Defense}
	w := newArchWorld(o, 24, 4, 6)
	var a *audit.Auditor
	if o.Defense {
		a = w.auditor(o, auditCfg(o))
	}
	plan := fault.NewPlan("drizzle").BitRot(0.3, 2*time.Minute, 10*time.Minute, 90*time.Minute)
	eng := fault.Install(w.net, *plan)
	eng.BindData(w.svc)
	w.k.RunUntil(4 * time.Hour)

	damaged := int64(len(w.svc.DamagedRoots()))
	bad := int64(w.svc.CountBadFragments())
	r.metric("rot_strikes", int64(eng.DataHits))
	r.metric("damaged_roots", damaged)
	r.metric("bad_fragments", bad)
	var st audit.Stats
	if a != nil {
		st = a.Stats()
		r.metric("detect_latency_p100_min", int64(time.Duration(a.DetectionLatency.Quantile(1))/time.Minute))
	}
	auditStatMetrics(&r, st)

	if eng.DataHits == 0 {
		r.violate("the drizzle never struck — scenario setup broken")
	}
	if damaged != 0 {
		r.violate("%d roots still carry unrepaired damage", damaged)
	}
	if bad != 0 {
		r.violate("%d rotted fragments still on disk", bad)
	}
	if st.Detections == 0 {
		r.violate("no damage was ever detected")
	}
	if st.Repairs == 0 {
		r.violate("no targeted repair ever ran")
	}
	if a != nil {
		// The latency bound scales with the audit rate: sampling a couple
		// of roots per interval, worst-case detection should stay within a
		// few tens of rounds.
		bound := 30 * auditCfg(o).Interval
		if lat := time.Duration(a.DetectionLatency.Quantile(1)); lat > bound {
			r.violate("worst detection latency %v exceeds %v (30 audit rounds)", lat, bound)
		}
	}
	w.checkAnswers(&r)
	return r
}

// runByzMinority: lying stores must be identified by reputation —
// exactly the liars, nobody else — and repair must migrate data off
// them.  With reputation disabled nobody is ever suspected and the
// liars keep their placement slots.
func runByzMinority(o Options) Result {
	r := Result{Scenario: "byz-minority", Defense: "reputation", Seed: o.Seed, Armed: o.Defense}
	w := newArchWorld(o, 16, 4, 4)
	liars := []simnet.NodeID{1, 4, 9}
	isLiar := make(map[simnet.NodeID]bool)
	for _, l := range liars {
		w.svc.SetByzantine(l, true)
		isLiar[l] = true
	}
	cfg := auditCfg(o)
	cfg.DisableReputation = !o.Defense
	a := w.auditor(o, cfg)
	w.k.RunUntil(3 * time.Hour)

	st := a.Stats()
	suspects := a.Suspected()
	r.metric("liars", int64(len(liars)))
	r.metric("suspected", int64(len(suspects)))
	var falseAcc, caught int64
	for _, s := range suspects {
		if isLiar[s] {
			caught++
		} else {
			falseAcc++
		}
	}
	r.metric("caught", caught)
	r.metric("false_accusations", falseAcc)
	var liarSlots int64
	for _, root := range w.svc.Roots() {
		for _, h := range w.svc.HoldersOf(root) {
			if isLiar[h] {
				liarSlots++
			}
		}
	}
	r.metric("liar_placement_slots", liarSlots)
	auditStatMetrics(&r, st)

	if st.Disagrees == 0 {
		r.violate("the liars were never caught in the act — scenario setup broken")
	}
	if caught != int64(len(liars)) {
		r.violate("only %d of %d liars identified", caught, len(liars))
	}
	if falseAcc != 0 {
		r.violate("%d honest stores falsely accused", falseAcc)
	}
	if liarSlots != 0 {
		r.violate("liars still hold %d placement slots after repair", liarSlots)
	}
	w.checkAnswers(&r)
	return r
}

// runPartitionHealStorm: a long partition makes every poll
// inconclusive; backoff must collapse the retry volume instead of
// letting the auditor hammer the dead network every tick, and the
// starvation must never be misread as damage.
func runPartitionHealStorm(o Options) Result {
	r := Result{Scenario: "partition-heal-storm", Defense: "backoff", Seed: o.Seed, Armed: o.Defense}
	w := newArchWorld(o, 20, 4, 5)
	cfg := auditCfg(o)
	cfg.DisableBackoff = !o.Defense
	a := w.auditor(o, cfg)
	// Total partition: every node isolated from t=30m, healed at t=3h.
	w.k.At(30*time.Minute, func() {
		for _, id := range w.svc.StoreNodes() {
			w.net.SetPartition(id, int(id))
		}
	})
	w.k.At(3*time.Hour, func() { w.net.ClearPartitions() })
	w.k.RunUntil(5 * time.Hour)

	st := a.Stats()
	auditStatMetrics(&r, st)
	r.metric("healthy", st.Healthy)

	if st.Inconclusive == 0 {
		r.violate("the partition never starved a poll — scenario setup broken")
	}
	// Starvation is a network condition, not data damage: no verdicts,
	// no repairs, no reputation lost to unreachable peers.
	if st.Disagrees != 0 || st.Missing != 0 {
		r.violate("partition misread as damage (%d disagrees, %d missing)", st.Disagrees, st.Missing)
	}
	if st.Repairs != 0 {
		r.violate("%d spurious repairs triggered by the partition", st.Repairs)
	}
	if s := a.Suspected(); len(s) != 0 {
		r.violate("%d unreachable peers lost reputation: %v", len(s), s)
	}
	// The backoff bound: during the 150-minute partition each (origin,
	// root) pair must settle into exponential gaps instead of polling
	// every tick.  The bound is calibrated ~2x above the armed run's
	// volume and ~3x below the unarmed one's.
	if st.Inconclusive > 2000 {
		r.violate("poll storm: %d inconclusive polls (backoff should bound this near 1k)", st.Inconclusive)
	}
	if st.Healthy == 0 {
		r.violate("no poll ever concluded healthy after the heal")
	}
	w.checkAnswers(&r)
	return r
}

// runAZLoss: one administrative domain crashes and comes back with
// blank disks.  The honest "lost it" votes are hard evidence; the
// auditor must re-disperse every archive back to full redundancy.
func runAZLoss(o Options) Result {
	r := Result{Scenario: "az-loss", Defense: "auditor", Seed: o.Seed, Armed: o.Defense}
	w := newArchWorld(o, 24, 4, 5)
	var az []simnet.NodeID
	for _, id := range w.svc.StoreNodes() {
		if w.net.Node(id).Domain() == 0 {
			az = append(az, id)
		}
	}
	var a *audit.Auditor
	if o.Defense {
		a = w.auditor(o, auditCfg(o))
	}
	plan := fault.NewPlan("az-loss").
		CrashGroup(az, 30*time.Minute, time.Hour).
		DiskWipe(az, time.Hour) // the machines return, their disks do not
	eng := fault.Install(w.net, *plan)
	eng.BindData(w.svc)
	w.k.RunUntil(5 * time.Hour)

	var st audit.Stats
	if a != nil {
		st = a.Stats()
	}
	damaged := int64(len(w.svc.DamagedRoots()))
	minLive := int64(1 << 30)
	for _, root := range w.svc.Roots() {
		if lf := int64(w.svc.LiveFragments(root)); lf < minLive {
			minLive = lf
		}
	}
	r.metric("az_nodes", int64(len(az)))
	r.metric("fragments_wiped", int64(eng.DataHits))
	r.metric("damaged_roots", damaged)
	r.metric("min_live_fragments", minLive)
	auditStatMetrics(&r, st)

	if eng.DataHits == 0 {
		r.violate("the wipe lost nothing — scenario setup broken")
	}
	if damaged != 0 {
		r.violate("%d roots still damaged after the AZ loss", damaged)
	}
	if minLive < int64(w.cfg.TotalFragments) {
		r.violate("redundancy not restored: weakest archive has %d/%d live fragments",
			minLive, w.cfg.TotalFragments)
	}
	if st.Missing == 0 {
		r.violate("no 'lost it' vote was ever heard")
	}
	if st.Repairs == 0 {
		r.violate("no repair re-dispersed the wiped fragments")
	}
	w.checkAnswers(&r)
	return r
}

// runAuditAmplification: attackers flood forged polls at the stores.
// The responder-side vote budget must keep audit reply traffic bounded
// no matter the request volume; with the rate limit off the protocol
// becomes the amplifier the attacker wanted.
func runAuditAmplification(o Options) Result {
	r := Result{Scenario: "audit-amplification", Defense: "rate-limit", Seed: o.Seed, Armed: o.Defense}
	w := newArchWorld(o, 16, 4, 3)
	cfg := auditCfg(o)
	cfg.MaxVotesPerInterval = 4
	cfg.DisableRateLimit = !o.Defense
	a := w.auditor(o, cfg)

	// Two compromised nodes flood forged polls at every store, every
	// five seconds for an hour, starting at t=10m.
	attackers := []simnet.NodeID{14, 15}
	root := w.svc.Roots()[0]
	targets := w.svc.StoreNodes()
	var rid uint64 = 1 << 40 // clear of the auditor's own rid space
	var flood func()
	flood = func() {
		if w.k.Now() >= 70*time.Minute {
			return
		}
		for _, atk := range attackers {
			for _, victim := range targets {
				if victim == atk {
					continue
				}
				rid++
				w.net.Send(atk, victim, audit.KindPoll, audit.ForgePoll(root, atk, rid), 48)
			}
		}
		w.k.After(5*time.Second, flood)
	}
	w.k.At(10*time.Minute, flood)
	total := 2 * time.Hour
	w.k.RunUntil(total)

	st := a.Stats()
	voteBytes := w.net.KindBytes(audit.KindVote)
	intervals := int64(total/cfg.Interval) + 1
	capVotes := int64(len(targets)) * int64(cfg.MaxVotesPerInterval) * intervals
	r.metric("forged_polls", int64(rid-(1<<40)))
	r.metric("votes_cap", capVotes)
	r.metric("vote_bytes", voteBytes)
	r.metric("votes_suppressed", st.VotesSuppressed)
	auditStatMetrics(&r, st)

	if rid == 1<<40 {
		r.violate("the flood never fired — scenario setup broken")
	}
	if st.VotesServed > capVotes {
		r.violate("amplification: %d votes served exceeds the rate cap %d", st.VotesServed, capVotes)
	}
	// Each vote carries at most one fragment (~500 B here); the cap on
	// votes bounds the bytes an attacker can conjure onto the wire.
	if maxBytes := capVotes * 600; voteBytes > maxBytes {
		r.violate("audit reply traffic %d B exceeds byte cap %d B", voteBytes, maxBytes)
	}
	if o.Defense && st.VotesSuppressed == 0 {
		r.violate("the budget never suppressed a forged poll")
	}
	w.checkAnswers(&r)
	return r
}
