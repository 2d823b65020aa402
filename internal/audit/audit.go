// Package audit is a LOCKSS-style integrity auditor for the archival
// tier (PAPERS.md: "Preserving peer replicas by rate-limited sampled
// voting").
//
// Nothing below the primary tier notices when stored fragments rot or
// when a storage server starts lying — retrieval silently discards bad
// fragments, and the repair sweep only reacts to *missing* redundancy.
// The auditor closes that gap the way LOCKSS does for library
// replicas, adapted to erasure fragments:
//
//   - each storage node periodically SAMPLES a few archive roots it
//     holds fragments of, re-verifies its own copies, and POLLS a
//     random subset of co-holders over the simulated network;
//   - polled peers answer with the fragment they hold (or an honest
//     "lost it"); every returned fragment is checked against the
//     Merkle root at the poller, so votes are objectively verifiable
//     — a lying store convicts itself by the act of answering;
//   - verdicts are tallied with RATE LIMITS on both sides: pollers
//     spend a per-interval poll budget, responders a per-interval
//     vote budget (the defense that keeps the audit protocol itself
//     from becoming an amplification attack), and inconclusive polls
//     back off exponentially so a partition does not turn into a poll
//     storm;
//   - repeated bad answers cost a peer REPUTATION; disreputable peers
//     cannot contribute to a root's clean bill of health, and the
//     auditor marks them suspect in archive.Service so repair places no
//     fragment on them;
//   - damning verdicts only queue the root in the archive's one repair
//     queue, which the archival Scheduler feeds too; each audit tick
//     drains it once under the per-interval repair budget, so verdicts
//     on one root coalesce into one repair.
//
// Everything runs on the virtual clock with kernel randomness, so an
// audited run is a pure function of (seed, plan) like the rest of the
// simulation.
package audit

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/simnet"
)

// Wire kinds (simnet accounting tags) for audit traffic.
const (
	KindPoll = "audit-poll"
	KindVote = "audit-vote"
)

// pollMsg asks a co-holder to exhibit its fragment of a root.
type pollMsg struct {
	Root  guid.GUID
	Reply simnet.NodeID
	Rid   uint64
}

// voteMsg is the answer: the holder's fragment, or Has=false when the
// holder has lost it.  An honest "lost it" is self-incriminating
// evidence of missing redundancy, not an accusation of anyone else.
type voteMsg struct {
	Root guid.GUID
	Has  bool
	Frag archive.StoredFragment
	Rid  uint64
}

// Config tunes the auditor.  Zero values take defaults.
type Config struct {
	// Interval is the audit tick period per storage node.
	Interval time.Duration
	// MaxVotesPerInterval caps votes each node may SERVE per tick —
	// the amplification defense: no matter how many polls arrive, a
	// node's audit reply traffic is bounded.
	MaxVotesPerInterval int

	// Disable knobs — each switches off exactly one defense so the
	// scenario suite can demonstrate the invariant that defense holds.
	DisableRateLimit  bool // no poll/vote/repair budgets
	DisableReputation bool // every peer stays trusted forever
	DisableBackoff    bool // inconclusive polls retry at full rate
}

const (
	// sampleRoots is how many held roots a node samples per tick.
	sampleRoots = 2
	// pollPeers is how many co-holders are polled per sampled root, and
	// how many secondaries per ring the replica auditor checks per tick.
	pollPeers = 3
	// minQuorum is the reputation-weighted agreement mass a root needs
	// for a clean bill of health; below it the poll is inconclusive.
	minQuorum = 2.0
	// maxPollsPerInterval caps polls each node may SEND per tick.
	maxPollsPerInterval = 8
	// maxRepairsPerInterval caps the repairs each tick's drain of the
	// repair queue attempts, keeping a mass-damage event from turning
	// the auditor into a repair storm.
	maxRepairsPerInterval = 4
	// reputationCut is the reputation below which a peer is suspected:
	// excluded from repair placement (archive.Service.SetSuspect) and
	// from health quorums.
	reputationCut = 0.3
	// backoffBase and backoffMax bound the per-(node, root) retry gap
	// after inconclusive polls.
	backoffBase = 2 * time.Minute
	backoffMax  = 32 * time.Minute
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	if c.MaxVotesPerInterval <= 0 {
		c.MaxVotesPerInterval = 8
	}
	return c
}

// Stats are the auditor's always-on counters and the one copy of each
// count: they exist with no registry attached, and the scenario checks
// read them; an attached registry reads them too (Instrument).
type Stats struct {
	Polls           int64 // poll messages sent
	PollsSuppressed int64 // polls withheld by budget or backoff
	VotesServed     int64 // vote replies sent
	VotesSuppressed int64 // polls arriving after the vote budget ran dry
	SelfChecks      int64 // local fragment re-verifications
	Agrees          int64 // votes whose fragment verified
	Disagrees       int64 // votes whose fragment failed verification
	Missing         int64 // votes answering "lost it"
	Healthy         int64 // polls concluding with a clean bill of health
	Inconclusive    int64 // polls without quorum (backoff grows)
	Detections      int64 // distinct damage events first noticed
	Repairs         int64 // roots this auditor's drains repaired
	RepairFailures  int64 // repairs its drains attempted and failed
	RepairsDeferred int64 // roots its drains deferred (Service.RepairQueued)
}

// Auditor runs the audit protocol over one archive.Service.
type Auditor struct {
	net *simnet.Network
	svc *archive.Service
	cfg Config

	running bool

	nextRid  uint64
	inflight map[uint64]*pollState

	pollBudget map[simnet.NodeID]int
	voteBudget map[simnet.NodeID]int

	reputation map[simnet.NodeID]float64
	// backoff holds the no-poll-before deadline and current gap per
	// (origin, root) after inconclusive polls.
	backoff map[backKey]*backoffState
	// detected remembers which damage event (root, damage time) has
	// already been counted, so repeated verdicts before the repair
	// lands do not inflate Detections.  A repair clears the service's
	// damage record, so later damage carries a later time.
	detected map[guid.GUID]time.Duration

	stats Stats
	// DetectionLatency records virtual time from damage to detection.
	DetectionLatency obs.Histogram

	otr *obs.Tracer
}

type backKey struct {
	node simnet.NodeID
	root guid.GUID
}

type backoffState struct {
	until time.Duration
	gap   time.Duration
}

// pollState tracks one open poll: the origin waiting on votes for one
// root.
type pollState struct {
	origin  simnet.NodeID
	root    guid.GUID
	sent    int
	agree   float64 // reputation-weighted agreement mass
	agrees  int
	damning int // objectively bad answers (failed verify, lost it)
	replies int
	done    bool
}

// New creates an auditor for the archival service.  Call Start to arm
// it.
func New(net *simnet.Network, svc *archive.Service, cfg Config) *Auditor {
	return &Auditor{
		net:        net,
		svc:        svc,
		cfg:        cfg.withDefaults(),
		inflight:   make(map[uint64]*pollState),
		pollBudget: make(map[simnet.NodeID]int),
		voteBudget: make(map[simnet.NodeID]int),
		reputation: make(map[simnet.NodeID]float64),
		backoff:    make(map[backKey]*backoffState),
		detected:   make(map[guid.GUID]time.Duration),
	}
}

// Instrument attaches an observability registry and/or tracer; metrics
// only count, they never steer the protocol.  The registry reads the
// lifetime totals in Stats and DetectionLatency, so a registry attached
// mid-run agrees with them from its first read.
func (a *Auditor) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	a.otr = tr
	count := func(name string, p *int64) {
		reg.CounterSource("audit", name, obs.Value(func() int64 { return *p }))
	}
	count("polls", &a.stats.Polls)
	count("votes", &a.stats.VotesServed)
	count("agrees", &a.stats.Agrees)
	count("disagrees", &a.stats.Disagrees)
	count("missing", &a.stats.Missing)
	count("healthy", &a.stats.Healthy)
	count("inconclusive", &a.stats.Inconclusive)
	count("detections", &a.stats.Detections)
	count("repairs", &a.stats.Repairs)
	count("repair_failed", &a.stats.RepairFailures)
	count("suppressed", &a.stats.VotesSuppressed)
	reg.HistogramSource("audit", "detection_latency_ns", &a.DetectionLatency)
}

// Start registers the auditor's one network-wide handler, which
// answers polls and collects votes at every store — including stores
// that first hold a fragment after Start — and arms the periodic audit
// tick.
func (a *Auditor) Start() {
	if a.running {
		return
	}
	a.running = true
	a.net.HandleAll(a.handle)
	a.refill()
	a.net.K.Every(a.cfg.Interval, a.tick)
}

// Stats returns a copy of the auditor's counters.
func (a *Auditor) Stats() Stats { return a.stats }

// Reputation reads a peer's current reputation (1.0 until observed
// misbehaving).
func (a *Auditor) Reputation(id simnet.NodeID) float64 {
	if r, ok := a.reputation[id]; ok {
		return r
	}
	return 1.0
}

// Suspected lists the peers whose reputation has fallen below the cut,
// in ID order — the exclusion set handed to targeted repair.
func (a *Auditor) Suspected() []simnet.NodeID {
	if a.cfg.DisableReputation {
		return nil
	}
	var out []simnet.NodeID
	for id, r := range a.reputation {
		if r < reputationCut {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refill resets every node's per-interval budgets.
func (a *Auditor) refill() {
	for _, id := range a.svc.StoreNodes() {
		a.pollBudget[id] = maxPollsPerInterval
		a.voteBudget[id] = a.cfg.MaxVotesPerInterval
	}
}

// tick runs one audit round: refill budgets, drain the repair queue the
// last interval's verdicts fed, then every live honest node samples and
// polls.  Node order is sorted and all randomness comes from the
// kernel, so the round is deterministic.
func (a *Auditor) tick() {
	a.refill()
	budget := maxRepairsPerInterval
	if a.cfg.DisableRateLimit {
		budget = math.MaxInt
	}
	repaired, failed, deferred := a.svc.RepairQueued(budget)
	a.stats.Repairs += int64(repaired)
	a.stats.RepairFailures += int64(failed)
	a.stats.RepairsDeferred += int64(deferred)
	rng := a.net.K.Rand()
	for _, id := range a.svc.StoreNodes() {
		if a.net.Node(id).Down() {
			continue
		}
		if a.svc.Byzantine(id) {
			continue // a liar audits no one; honest peers convict it
		}
		a.auditNode(id, rng)
	}
}

// auditNode runs one node's sampling round: self-check a few held
// roots, then poll co-holders about them.
func (a *Auditor) auditNode(id simnet.NodeID, rng *rand.Rand) {
	held := a.svc.RootsHeldBy(id)
	if len(held) == 0 {
		return
	}
	samples := min(sampleRoots, len(held))
	for _, i := range rng.Perm(len(held))[:samples] {
		root := held[i]
		// Self-check: an honest node can convict its own disk — the
		// fragments are self-verifying.  Proven-rotted copies are
		// dropped so they cannot be served or polled as if healthy.
		a.stats.SelfChecks++
		selfBad := a.svc.VerifyHeld(id, root)
		for _, idx := range selfBad {
			a.svc.DropFragment(id, root, idx)
		}
		if len(selfBad) > 0 {
			a.evidence(id, root, len(selfBad))
		}
		a.poll(id, root, rng)
	}
}

// poll sends this round's poll messages for (origin, root), honouring
// budget and backoff, and schedules the tally.
func (a *Auditor) poll(origin simnet.NodeID, root guid.GUID, rng *rand.Rand) {
	now := a.net.K.Now()
	if !a.cfg.DisableBackoff {
		if b, ok := a.backoff[backKey{origin, root}]; ok && now < b.until {
			a.stats.PollsSuppressed++
			return
		}
	}
	var peers []simnet.NodeID
	for _, nid := range a.svc.HoldersOf(root) {
		if nid != origin {
			peers = append(peers, nid)
		}
	}
	if len(peers) == 0 {
		return
	}
	want := min(pollPeers, len(peers))
	st := &pollState{origin: origin, root: root}
	for _, i := range rng.Perm(len(peers))[:want] {
		if !a.cfg.DisableRateLimit {
			if a.pollBudget[origin] <= 0 {
				a.stats.PollsSuppressed++
				continue
			}
			a.pollBudget[origin]--
		}
		if st.sent == 0 {
			a.nextRid++
			a.inflight[a.nextRid] = st
		}
		st.sent++
		a.stats.Polls++
		a.net.Send(origin, peers[i], KindPoll,
			pollMsg{Root: root, Reply: origin, Rid: a.nextRid}, pollWireSize)
	}
	if st.sent == 0 {
		return
	}
	rid := a.nextRid
	// Tally after half an interval: long past the network's round-trip
	// scale, safely before the next tick touches the same root.
	a.net.K.After(a.cfg.Interval/2, func() { a.tally(rid) })
}

// handle processes audit traffic arriving at node id, and no other.
func (a *Auditor) handle(id simnet.NodeID, m simnet.Message) {
	switch p := m.Payload.(type) {
	case pollMsg:
		// Responder side: the vote budget is the amplification defense.
		// A drained budget drops the poll silently — bounded reply
		// traffic no matter how many polls arrive.
		if !a.cfg.DisableRateLimit {
			if a.voteBudget[id] <= 0 {
				a.stats.VotesSuppressed++
				return
			}
			a.voteBudget[id]--
		}
		vote := voteMsg{Root: p.Root, Rid: p.Rid}
		if sf, ok := a.svc.ServeFragment(id, p.Root); ok {
			vote.Has, vote.Frag = true, sf
		}
		a.stats.VotesServed++
		size := voteWireSize
		if vote.Has {
			size = vote.Frag.WireSize()
		}
		a.net.Send(id, p.Reply, KindVote, vote, size)
	case voteMsg:
		st, ok := a.inflight[p.Rid]
		if !ok || st.done {
			return
		}
		st.replies++
		switch {
		case !p.Has:
			// An honest "lost it" is hard evidence of missing
			// redundancy (wiped disk), not an accusation.
			st.damning++
			a.stats.Missing++
		case p.Frag.Root == st.root && p.Frag.Verify():
			st.agrees++
			st.agree += a.trustOf(m.From)
			a.stats.Agrees++
			a.credit(m.From)
		default:
			// The fragment fails its own Merkle check: cryptographic
			// proof the holder is rotted or lying.  Conviction by the
			// act of answering.  The proven-bad copy is dropped at the
			// holder so one rotted fragment costs one discredit, not one
			// per poll until repair — an honest victim of rot recovers
			// its reputation; only a store that keeps producing bad
			// answers (a liar) slides to the floor.
			st.damning++
			a.stats.Disagrees++
			a.discredit(m.From)
			a.svc.DropFragment(m.From, st.root, p.Frag.Index)
		}
	}
}

// tally concludes a poll once its collection window closes.
func (a *Auditor) tally(rid uint64) {
	st, ok := a.inflight[rid]
	if !ok || st.done {
		return
	}
	st.done = true
	delete(a.inflight, rid)
	key := backKey{st.origin, st.root}
	switch {
	case st.damning > 0:
		delete(a.backoff, key)
		a.evidence(st.origin, st.root, st.damning)
	case st.agree >= minQuorum:
		// Clean bill of health: enough reputation-weighted agreement.
		a.stats.Healthy++
		delete(a.backoff, key)
	default:
		// Not enough trustworthy answers — unreachable peers, drained
		// vote budgets, or a root held mostly by suspects.  Back off
		// before asking again; a partition must not become a storm.
		a.stats.Inconclusive++
		if !a.cfg.DisableBackoff {
			b := a.backoff[key]
			if b == nil {
				b = &backoffState{gap: backoffBase}
				a.backoff[key] = b
			} else if b.gap < backoffMax {
				b.gap *= 2
				if b.gap > backoffMax {
					b.gap = backoffMax
				}
			}
			b.until = a.net.K.Now() + b.gap
		}
	}
}

// evidence registers objective proof of damage to a root observed by
// origin, records detection latency for the underlying damage event,
// and queues the root for repair at the next tick's drain.
func (a *Auditor) evidence(origin simnet.NodeID, root guid.GUID, weight int) {
	now := a.net.K.Now()
	if since, ok := a.svc.DamagedSince(root); ok && a.detected[root] != since {
		a.detected[root] = since
		a.stats.Detections++
		a.DetectionLatency.ObserveDuration(now - since)
		if a.otr != nil {
			a.otr.Emit(obs.Event{
				T: int64(now), Node: int(origin), Peer: -1,
				Layer: "audit", Event: "detect", ID: root.Uint64(),
				Bytes: weight,
			})
		}
	}
	a.svc.QueueRepair(root)
}

// trustOf weighs a peer's vote: its reputation clamped to [0, 1], or a
// flat 1 when reputation is disabled.  Suspects contribute nothing —
// a clean bill of health cannot be bought with liars' votes.
func (a *Auditor) trustOf(id simnet.NodeID) float64 {
	if a.cfg.DisableReputation {
		return 1
	}
	r := a.Reputation(id)
	if r < reputationCut {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// credit slowly rebuilds reputation on verified answers.
func (a *Auditor) credit(id simnet.NodeID) {
	if a.cfg.DisableReputation {
		return
	}
	r := a.Reputation(id) + 0.05
	if r > 2 {
		r = 2
	}
	a.setReputation(id, r)
}

// discredit halves reputation on proven-bad answers: a few lies are
// enough to fall below any sensible cut, while a single transient
// corruption does not banish a mostly-honest peer forever.
func (a *Auditor) discredit(id simnet.NodeID) {
	if a.cfg.DisableReputation {
		return
	}
	r := a.Reputation(id) * 0.5
	if r < 0.05 {
		r = 0.05
	}
	a.setReputation(id, r)
}

// setReputation records a peer's reputation and keeps the archive's
// suspect mark in step with it, so repair placement sees the verdict.
func (a *Auditor) setReputation(id simnet.NodeID, r float64) {
	a.reputation[id] = r
	a.svc.SetSuspect(id, r < reputationCut)
}

// ForgePoll builds a raw poll payload — the attacker's tool in the
// amplification scenario and its tests: flooding forged polls at a
// victim is exactly the traffic the vote budget must absorb.
func ForgePoll(root guid.GUID, reply simnet.NodeID, rid uint64) any {
	return pollMsg{Root: root, Reply: reply, Rid: rid}
}

// Wire size estimates for the small audit messages (fragment votes use
// the fragment's real wire size).
const (
	pollWireSize = 48
	voteWireSize = 40
)
