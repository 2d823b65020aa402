package archive

import (
	"math/rand"

	"oceanstore/internal/guid"
	"oceanstore/internal/simnet"
)

// Crash-shaped data faults.  These only bite on stores with a real
// durability boundary (archive.Crashable, i.e. internal/blobstore);
// an in-memory store has no moment mid-write for a power cut to land
// in, so both are no-ops there.  The RNG draws happen before the
// backend check, so a fault plan consumes randomness identically on
// memory and disk backends and the rest of the trajectory stays
// comparable across the ablation.

// TornWrite simulates a power cut landing mid-append on a node's
// store: a random held fragment is rewritten with the write torn at a
// random byte offset, then crash recovery runs.  The torn record is
// scrubbed from the log tail; the fragment's earlier, complete record
// survives the rescan — torn writes must never lose data that was
// already durable, and the fault exists to keep proving that under
// soak.  Returns whether a tear actually ran.
func (s *Service) TornWrite(id simnet.NodeID, rng *rand.Rand) bool {
	ns, ok := s.stores[id]
	if !ok {
		return false
	}
	roots := HeldRoots(ns)
	if len(roots) == 0 {
		return false
	}
	root := roots[rng.Intn(len(roots))]
	idxs := HeldIndexes(ns, root)
	sf, ok := ns.Get(root, idxs[rng.Intn(len(idxs))])
	if !ok {
		return false
	}
	keep := rng.Intn(len(sf.Data) + 1)
	cr, ok := ns.(Crashable)
	if !ok {
		return false
	}
	cr.TearNextAppend(keep)
	_ = ns.Put(sf) // dies mid-append with ErrCrashed
	if err := cr.Recover(false); err != nil {
		return false
	}
	delete(s.dirty, id)
	return true
}

// PartialFsync crashes a node's store before its pending fsync: every
// record appended since the last Sync is gone when it comes back.
// Fragments lost this way are real missing redundancy — each lost
// root is recorded in the damage ledger for the audit and repair
// layers to notice.  Returns the number of fragments lost (0 on
// memory backends, or when everything was already synced).
func (s *Service) PartialFsync(id simnet.NodeID) int {
	ns, ok := s.stores[id]
	if !ok {
		return 0
	}
	cr, ok := ns.(Crashable)
	if !ok {
		return 0
	}
	type fkey struct {
		root guid.GUID
		idx  int
	}
	var before []fkey
	ns.Scan(func(root guid.GUID, idx int) bool {
		before = append(before, fkey{root, idx})
		return true
	})
	cr.Crash()
	if err := cr.Recover(true); err != nil {
		return 0
	}
	lost := 0
	for _, k := range before {
		if _, ok := ns.Get(k.root, k.idx); !ok {
			lost++
			s.noteDamage(k.root)
		}
	}
	delete(s.dirty, id)
	return lost
}
