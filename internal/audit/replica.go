package audit

import (
	"oceanstore/internal/obs"
	"oceanstore/internal/replica"
	"oceanstore/internal/simnet"
)

// ReplicaAuditor extends the sampled-audit idea to the floating
// replicas: a secondary's committed state is a deterministic function
// of the primary's serialisation, so any digest mismatch at equal
// commit height is silent state corruption on an untrusted server —
// detected by sampling, fixed by targeted state transfer.  Digest
// exchange is modelled as one poll/vote round trip on the simulated
// network so audit bytes stay accounted.

// ReplicaStats are the replica auditor's always-on counters.
type ReplicaStats struct {
	Checks     int64 // digest comparisons performed
	Skipped    int64 // secondaries behind the primary (lag, not damage)
	Detections int64 // digest mismatches at equal height
	Repairs    int64 // secondaries restored by state transfer
}

// ReplicaAuditor audits the secondaries of a set of rings.
type ReplicaAuditor struct {
	net *simnet.Network
	cfg Config

	rings   []*replica.Ring
	running bool

	stats ReplicaStats
}

// NewReplicaAuditor creates an auditor over the given rings (more may
// be added before Start).
func NewReplicaAuditor(net *simnet.Network, cfg Config, rings ...*replica.Ring) *ReplicaAuditor {
	return &ReplicaAuditor{net: net, cfg: cfg.withDefaults(), rings: rings}
}

// AddRing registers another object's ring for auditing.
func (ra *ReplicaAuditor) AddRing(r *replica.Ring) { ra.rings = append(ra.rings, r) }

// Instrument registers the auditor's Stats, so reg reads their lifetime
// totals (counting never steers).
func (ra *ReplicaAuditor) Instrument(reg *obs.Registry) {
	count := func(name string, p *int64) {
		reg.CounterSource("audit", name, obs.Value(func() int64 { return *p }))
	}
	count("replica_checks", &ra.stats.Checks)
	count("replica_detections", &ra.stats.Detections)
	count("replica_repairs", &ra.stats.Repairs)
}

// Start arms the periodic digest sweep.
func (ra *ReplicaAuditor) Start() {
	if ra.running {
		return
	}
	ra.running = true
	ra.net.K.Every(ra.cfg.Interval, ra.tick)
}

// Stats returns a copy of the counters.
func (ra *ReplicaAuditor) Stats() ReplicaStats { return ra.stats }

// tick samples up to pollPeers secondaries per ring and compares their
// committed-state digests against the primary's.
func (ra *ReplicaAuditor) tick() {
	rng := ra.net.K.Rand()
	for _, ring := range ra.rings {
		secs := ring.Secondaries()
		if len(secs) == 0 {
			continue
		}
		pd := ring.PrimaryDigest()
		want := min(pollPeers, len(secs))
		for _, i := range rng.Perm(len(secs))[:want] {
			sec := secs[i]
			if ra.net.Node(sec.Node).Down() {
				continue
			}
			// Account the poll/vote round trip: a digest request and a
			// fixed-size digest reply.
			ra.net.Send(ring.PrimaryNodes()[0], sec.Node, KindPoll, nil, pollWireSize)
			ra.net.Send(sec.Node, ring.PrimaryNodes()[0], KindVote, nil, voteWireSize)
			sd, ok := ring.SecondaryDigest(sec.Node)
			if !ok {
				continue
			}
			ra.stats.Checks++
			if sd.Height != pd.Height {
				// Behind the primary: lag is the epidemic tier's normal
				// state, not corruption.  Gossip will catch it up.
				ra.stats.Skipped++
				continue
			}
			if sd.Sum == pd.Sum {
				continue
			}
			ra.stats.Detections++
			if err := ring.RepairSecondary(sec.Node); err == nil {
				ra.stats.Repairs++
			}
		}
	}
}
