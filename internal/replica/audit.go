package replica

import (
	"errors"

	"oceanstore/internal/epidemic"
	"oceanstore/internal/guid"
	"oceanstore/internal/simnet"
)

// Audit surface: content digests over committed state and targeted
// secondary repair.  A secondary's committed state is a deterministic
// function of the primary's log, so two replicas at the same commit
// height must digest identically — any difference is corruption, not
// divergence.  The audit layer polls these digests over simnet and
// repairs indicted replicas here.

// StateDigest summarises a replica's committed state for comparison.
type StateDigest struct {
	// Height is the committed log length the digest was taken at;
	// digests are only comparable at equal heights.
	Height int
	// Sum hashes the serialised committed version.
	Sum guid.GUID
}

// digestOf computes the committed-state digest of one replica.
func digestOf(rep *epidemic.Replica) StateDigest {
	return StateDigest{
		Height: rep.CommittedLen(),
		Sum:    guid.FromData(snapshotBytes(rep.CommittedState())),
	}
}

// PrimaryDigest returns the authoritative committed-state digest.
func (r *Ring) PrimaryDigest() StateDigest { return digestOf(r.primaryState) }

// SecondaryDigest returns a secondary's committed-state digest.
func (r *Ring) SecondaryDigest(node simnet.NodeID) (StateDigest, bool) {
	sec, ok := r.secondaries[node]
	if !ok {
		return StateDigest{}, false
	}
	return digestOf(sec.Rep), true
}

// RepairSecondary overwrites a secondary's committed state with the
// authoritative primary's checkpoint — the targeted repair a damning
// audit verdict triggers.  Exact state transfer through the adopt step
// of epidemic's CatchUp, not log replay: replaying into a fresh replica
// would re-evaluate guards against a reset base and could diverge from
// the history the primary actually committed.  The replica is repaired
// in place, so every handler holding it keeps working.
func (r *Ring) RepairSecondary(node simnet.NodeID) error {
	sec, ok := r.secondaries[node]
	if !ok {
		return errors.New("replica: not a secondary")
	}
	sec.Rep.Adopt(r.primaryState.Checkpoint())
	sec.Stale = false
	return nil
}
