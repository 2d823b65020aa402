package archive

import (
	"math/rand"
	"sort"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/simnet"
)

// This file is the archival layer's data-plane integrity surface: the
// hooks the fault engine uses to rot, wipe and subvert stores, and the
// queries the audit layer (internal/audit) uses to sample fragments,
// find co-holders, and measure how long damage went unnoticed.  The
// paper assumes "data be protected from unauthorized ... substitution"
// (§4.1) and that repair processes notice decay (§4.5); these hooks
// make both assumptions testable.

// garble returns a plausible-looking but invalid copy of a fragment:
// same root, index, sizes and proof, corrupted payload.  It is what a
// Byzantine store serves — structurally valid on the wire, failing the
// Merkle check at any honest verifier.
func garble(sf StoredFragment) StoredFragment {
	data := append([]byte(nil), sf.Data...)
	if len(data) > 0 {
		data[0] ^= 0xA5
	}
	sf.Data = data
	return sf
}

// SetByzantine marks (or clears) a storage node as Byzantine.  A
// Byzantine node keeps its fragments intact on disk — its lie lives on
// the wire: every fragment it serves is garbled while it claims full
// health.
func (s *Service) SetByzantine(id simnet.NodeID, on bool) {
	if on {
		s.byz[id] = true
	} else {
		delete(s.byz, id)
	}
}

// Byzantine reports whether a node is marked Byzantine.
func (s *Service) Byzantine(id simnet.NodeID) bool { return s.byz[id] }

// ServeFragment returns what node id would put on the wire for its
// lowest-indexed fragment of root: the stored fragment for an honest
// node, a garbled copy for a Byzantine one.  The audit layer polls
// through this so lying stores lie to auditors exactly as they lie to
// retrievers.
func (s *Service) ServeFragment(id simnet.NodeID, root guid.GUID) (StoredFragment, bool) {
	ns, ok := s.stores[id]
	if !ok {
		return StoredFragment{}, false
	}
	idxs := ns.Indexes(root)
	if len(idxs) == 0 {
		return StoredFragment{}, false
	}
	sf, _ := ns.Get(root, idxs[0])
	if s.byz[id] {
		sf = garble(sf)
	}
	return sf, true
}

// CorruptFragment silently flips one byte of a stored fragment —
// bit rot on disk.  The store keeps serving the rotted copy; nothing
// below the audit layer will ever notice.  Returns false when the node
// does not hold that fragment.
func (s *Service) CorruptFragment(id simnet.NodeID, root guid.GUID, index int) bool {
	ns, ok := s.stores[id]
	if !ok {
		return false
	}
	t, ok := ns.(Tamperable)
	if !ok {
		return false
	}
	if !t.Tamper(root, index, func(data []byte) {
		if len(data) > 0 {
			data[len(data)/2] ^= 0x01
		}
	}) {
		return false
	}
	s.noteDamage(root)
	return true
}

// CorruptRandom rots one randomly chosen fragment held by node id,
// drawing from rng (the fault engine passes the kernel source so runs
// stay reproducible).  Returns the damaged root.
func (s *Service) CorruptRandom(id simnet.NodeID, rng *rand.Rand) (guid.GUID, bool) {
	ns, ok := s.stores[id]
	if !ok {
		return guid.Zero, false
	}
	roots := ns.Roots()
	if len(roots) == 0 {
		return guid.Zero, false
	}
	root := roots[rng.Intn(len(roots))]
	idxs := ns.Indexes(root)
	if len(idxs) == 0 {
		return guid.Zero, false
	}
	if !s.CorruptFragment(id, root, idxs[rng.Intn(len(idxs))]) {
		return guid.Zero, false
	}
	return root, true
}

// WipeNode drops every fragment node id holds — correlated disk loss
// (an AZ whose machines come back empty).  Returns how many fragments
// were lost; each affected root is recorded as damaged.
func (s *Service) WipeNode(id simnet.NodeID) int {
	ns, ok := s.stores[id]
	if !ok {
		return 0
	}
	lost := 0
	for _, root := range ns.Roots() {
		for _, idx := range ns.Indexes(root) {
			ns.Drop(root, idx)
			lost++
		}
		s.noteDamage(root)
	}
	return lost
}

// noteDamage timestamps the first unrepaired damage to a root.
func (s *Service) noteDamage(root guid.GUID) {
	if _, already := s.damagedAt[root]; !already {
		s.damagedAt[root] = s.net.K.Now()
	}
}

// DamagedSince reports when a root first took still-unrepaired damage.
func (s *Service) DamagedSince(root guid.GUID) (time.Duration, bool) {
	t, ok := s.damagedAt[root]
	return t, ok
}

// DamagedRoots lists roots with unrepaired data-plane damage, in GUID
// order.  With the auditor running this drains to empty; without it,
// rot accumulates here forever — the scenario suite's core invariant.
func (s *Service) DamagedRoots() []guid.GUID {
	out := make([]guid.GUID, 0, len(s.damagedAt))
	for root := range s.damagedAt {
		out = append(out, root)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Roots lists every archive root the service knows, in GUID order.
func (s *Service) Roots() []guid.GUID {
	out := make([]guid.GUID, 0, len(s.where))
	for root := range s.where {
		out = append(out, root)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// StoreNodes lists the nodes that run fragment stores, in ID order —
// the population data-plane faults and audits draw from.
func (s *Service) StoreNodes() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(s.stores))
	for id := range s.stores {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RootsHeldBy lists the archive roots node id holds fragments of, in
// GUID order — the sampling population for that node's audit ticks.
func (s *Service) RootsHeldBy(id simnet.NodeID) []guid.GUID {
	ns, ok := s.stores[id]
	if !ok {
		return nil
	}
	return ns.Roots()
}

// HoldersOf lists the nodes the placement says hold fragments of root,
// deduplicated and sorted.  Wiped holders still appear (the placement
// remembers them) — an audit poll answered "I don't have it" is how
// missing redundancy gets noticed.
func (s *Service) HoldersOf(root guid.GUID) []simnet.NodeID {
	seen := make(map[simnet.NodeID]bool)
	var out []simnet.NodeID
	for _, nid := range s.where[root] {
		if !seen[nid] {
			seen[nid] = true
			out = append(out, nid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VerifyHeld re-verifies the fragments node id holds for root and
// returns the indexes that fail — the node's local audit self-check.
func (s *Service) VerifyHeld(id simnet.NodeID, root guid.GUID) (bad []int) {
	ns, ok := s.stores[id]
	if !ok {
		return nil
	}
	for _, idx := range ns.Indexes(root) {
		if sf, ok := ns.Get(root, idx); ok && !sf.Verify() {
			bad = append(bad, idx)
		}
	}
	return bad
}

// DropFragment removes one fragment from a node's store (the audit
// layer discards copies it has proven rotten before repairing).
func (s *Service) DropFragment(id simnet.NodeID, root guid.GUID, index int) {
	if ns, ok := s.stores[id]; ok {
		ns.Drop(root, index)
	}
}

// CountBadFragments scans every store and counts fragments that no
// longer verify — the quantity of silent rot currently on disk.
func (s *Service) CountBadFragments() int {
	bad := 0
	for _, id := range s.StoreNodes() {
		for _, root := range s.RootsHeldBy(id) {
			bad += len(s.VerifyHeld(id, root))
		}
	}
	return bad
}
