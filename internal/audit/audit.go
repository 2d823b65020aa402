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
//     cannot contribute to a root's clean bill of health, and damning
//     verdicts trigger targeted repair through archive.Service with
//     suspects excluded from the new placement.
//
// Everything runs on the virtual clock with kernel randomness, so an
// audited run is a pure function of (seed, plan) like the rest of the
// simulation.
package audit

import (
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
	// SampleRoots is how many held roots a node samples per tick.
	SampleRoots int
	// PollPeers is how many co-holders are polled per sampled root.
	PollPeers int
	// MaxVotesPerInterval caps votes each node may SERVE per tick —
	// the amplification defense: no matter how many polls arrive, a
	// node's audit reply traffic is bounded.
	MaxVotesPerInterval int
	// BackoffBase and BackoffMax bound the per-(node, root) retry gap
	// after inconclusive polls.
	BackoffBase, BackoffMax time.Duration

	// Disable knobs — each switches off exactly one defense so the
	// scenario suite can demonstrate the invariant that defense holds.
	DisableRateLimit  bool // no poll/vote/repair budgets
	DisableReputation bool // every peer stays trusted forever
	DisableBackoff    bool // inconclusive polls retry at full rate
}

const (
	// minQuorum is the reputation-weighted agreement mass a root needs
	// for a clean bill of health; below it the poll is inconclusive.
	minQuorum = 2.0
	// maxPollsPerInterval caps polls each node may SEND per tick.
	maxPollsPerInterval = 8
	// maxRepairsPerInterval caps repairs triggered per tick, keeping a
	// mass-damage event from turning the auditor into a repair storm.
	maxRepairsPerInterval = 4
	// reputationCut is the reputation below which a peer is suspected:
	// excluded from repair placement and from health quorums.
	reputationCut = 0.3
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	if c.SampleRoots <= 0 {
		c.SampleRoots = 2
	}
	if c.PollPeers <= 0 {
		c.PollPeers = 3
	}
	if c.MaxVotesPerInterval <= 0 {
		c.MaxVotesPerInterval = 8
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 2 * time.Minute
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 32 * time.Minute
	}
	return c
}

// Stats are the auditor's always-on counters: plain integers, readable
// by invariant checks without touching an obs registry (reading a
// registry counter would create its key and pollute deterministic
// dumps).
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
	Repairs         int64 // successful targeted repairs
	RepairFailures  int64 // repairs attempted and failed
	RepairsDeferred int64 // damning verdicts deferred by the repair budget
}

// Auditor runs the audit protocol over one archive.Service.
type Auditor struct {
	net *simnet.Network
	svc *archive.Service
	cfg Config

	running bool
	cancel  func()

	nextRid  uint64
	inflight map[uint64]*pollState

	pollBudget map[simnet.NodeID]int
	voteBudget map[simnet.NodeID]int
	repairs    int // repairs spent this tick

	reputation map[simnet.NodeID]float64
	// backoff holds the no-poll-before deadline and current gap per
	// (origin, root) after inconclusive polls.
	backoff map[backKey]*backoffState
	// detected remembers which damage event (root, damage time) has
	// already been counted, so repeated verdicts before the repair
	// lands do not inflate Detections.
	detected map[guid.GUID]time.Duration

	stats Stats
	// DetectionLatency records virtual time from damage to detection.
	DetectionLatency obs.Histogram

	om  auditMetrics
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

// auditMetrics mirrors Stats into an obs registry for dumps.
type auditMetrics struct {
	polls, votes, agrees, disagrees, missing *obs.Counter
	healthy, inconclusive                    *obs.Counter
	detections, repairs, repairFailed        *obs.Counter
	suppressed                               *obs.Counter
	detectLat                                *obs.Histogram
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
// only count, they never steer the protocol.
func (a *Auditor) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	a.otr = tr
	c := func(name string) *obs.Counter {
		return reg.Counter(obs.NodeWide, "audit", name)
	}
	a.om = auditMetrics{
		polls:        c("polls"),
		votes:        c("votes"),
		agrees:       c("agrees"),
		disagrees:    c("disagrees"),
		missing:      c("missing"),
		healthy:      c("healthy"),
		inconclusive: c("inconclusive"),
		detections:   c("detections"),
		repairs:      c("repairs"),
		repairFailed: c("repair_failed"),
		suppressed:   c("suppressed"),
		detectLat:    reg.Histogram(obs.NodeWide, "audit", "detection_latency_ns"),
	}
}

// Start installs the vote handlers and arms the periodic audit tick.
func (a *Auditor) Start() {
	if a.running {
		return
	}
	a.running = true
	for _, id := range a.svc.StoreNodes() {
		node := id
		a.net.Node(node).Handle(func(m simnet.Message) { a.handle(node, m) })
	}
	a.refill()
	a.cancel = a.net.K.Every(a.cfg.Interval, a.tick)
}

// Stop disarms the tick; handlers stay installed but the auditor sends
// nothing further (in-flight tallies still resolve).
func (a *Auditor) Stop() {
	if a.cancel != nil {
		a.cancel()
		a.cancel = nil
	}
	a.running = false
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

// suspectedSet is Suspected as a set, for repair exclusion.
func (a *Auditor) suspectedSet() map[simnet.NodeID]bool {
	s := a.Suspected()
	if len(s) == 0 {
		return nil
	}
	set := make(map[simnet.NodeID]bool, len(s))
	for _, id := range s {
		set[id] = true
	}
	return set
}

// refill resets every node's per-interval budgets.
func (a *Auditor) refill() {
	for _, id := range a.svc.StoreNodes() {
		a.pollBudget[id] = maxPollsPerInterval
		a.voteBudget[id] = a.cfg.MaxVotesPerInterval
	}
	a.repairs = 0
}

// tick runs one audit round: refill budgets, then every live honest
// node samples and polls.  Node order is sorted and all randomness
// comes from the kernel, so the round is deterministic.
func (a *Auditor) tick() {
	a.refill()
	a.retryPending()
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
	samples := a.cfg.SampleRoots
	if samples > len(held) {
		samples = len(held)
	}
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
	want := a.cfg.PollPeers
	if want > len(peers) {
		want = len(peers)
	}
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
		a.om.polls.Inc()
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

// handle processes audit traffic arriving at node id.
func (a *Auditor) handle(id simnet.NodeID, m simnet.Message) {
	switch p := m.Payload.(type) {
	case pollMsg:
		// Responder side: the vote budget is the amplification defense.
		// A drained budget drops the poll silently — bounded reply
		// traffic no matter how many polls arrive.
		if !a.cfg.DisableRateLimit {
			if a.voteBudget[id] <= 0 {
				a.stats.VotesSuppressed++
				a.om.suppressed.Inc()
				return
			}
			a.voteBudget[id]--
		}
		vote := voteMsg{Root: p.Root, Rid: p.Rid}
		if sf, ok := a.svc.ServeFragment(id, p.Root); ok {
			vote.Has, vote.Frag = true, sf
		}
		a.stats.VotesServed++
		a.om.votes.Inc()
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
			a.om.missing.Inc()
		case p.Frag.Root == st.root && p.Frag.Verify():
			st.agrees++
			st.agree += a.trustOf(m.From)
			a.stats.Agrees++
			a.om.agrees.Inc()
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
			a.om.disagrees.Inc()
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
		a.om.healthy.Inc()
		delete(a.backoff, key)
	default:
		// Not enough trustworthy answers — unreachable peers, drained
		// vote budgets, or a root held mostly by suspects.  Back off
		// before asking again; a partition must not become a storm.
		a.stats.Inconclusive++
		a.om.inconclusive.Inc()
		if !a.cfg.DisableBackoff {
			b := a.backoff[key]
			if b == nil {
				b = &backoffState{gap: a.cfg.BackoffBase}
				a.backoff[key] = b
			} else if b.gap < a.cfg.BackoffMax {
				b.gap *= 2
				if b.gap > a.cfg.BackoffMax {
					b.gap = a.cfg.BackoffMax
				}
			}
			b.until = a.net.K.Now() + b.gap
		}
	}
}

// evidence registers objective proof of damage to a root observed by
// origin, records detection latency for the underlying damage event,
// and triggers budget-capped targeted repair.
func (a *Auditor) evidence(origin simnet.NodeID, root guid.GUID, weight int) {
	now := a.net.K.Now()
	if since, ok := a.svc.DamagedSince(root); ok && a.detected[root] != since {
		a.detected[root] = since
		a.stats.Detections++
		a.DetectionLatency.ObserveDuration(now - since)
		a.om.detections.Inc()
		a.om.detectLat.ObserveDuration(now - since)
		if a.otr != nil {
			a.otr.Emit(obs.Event{
				T: int64(now), Node: int(origin), Peer: -1,
				Layer: "audit", Event: "detect", ID: root.Uint64(),
				Bytes: weight,
			})
		}
	}
	a.tryRepair(int(origin), root)
}

// tryRepair attempts a budget-capped targeted repair of root.  On
// deferral (budget drained) or failure the root stays in the detected
// set, and retryPending picks it up next tick — re-detection through
// polling is NOT guaranteed, because a node that dropped its proven-bad
// copy may still hold another verifying fragment of the same root and
// answer future polls healthy while redundancy stays degraded.
func (a *Auditor) tryRepair(origin int, root guid.GUID) {
	if !a.cfg.DisableRateLimit && a.repairs >= maxRepairsPerInterval {
		a.stats.RepairsDeferred++
		return
	}
	a.repairs++
	if err := a.svc.RepairRoot(root, nil, a.suspectedSet()); err != nil {
		a.stats.RepairFailures++
		a.om.repairFailed.Inc()
		return
	}
	delete(a.detected, root)
	a.stats.Repairs++
	a.om.repairs.Inc()
	if a.otr != nil {
		a.otr.Emit(obs.Event{
			T: int64(a.net.K.Now()), Node: origin, Peer: -1,
			Layer: "audit", Event: "repair", ID: root.Uint64(),
		})
	}
}

// retryPending drains detected-but-unrepaired damage under the fresh
// repair budget.  The detected map is exactly the set of roots whose
// damage was proven but whose repair was deferred or failed.
func (a *Auditor) retryPending() {
	if len(a.detected) == 0 {
		return
	}
	pending := make([]guid.GUID, 0, len(a.detected))
	for root := range a.detected {
		pending = append(pending, root)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].Compare(pending[j]) < 0 })
	for _, root := range pending {
		if _, still := a.svc.DamagedSince(root); !still {
			delete(a.detected, root) // repaired through some other path
			continue
		}
		a.tryRepair(-1, root)
	}
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
	a.reputation[id] = r
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
	a.reputation[id] = r
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
