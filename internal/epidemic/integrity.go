package epidemic

import (
	"maps"
	"slices"

	"oceanstore/internal/object"
	"oceanstore/internal/update"
)

// Integrity hooks for the audit layer: exact-copy repair and the
// corruption injection the replica auditor exists to catch.  A
// secondary's committed state is supposed to be a pure function of the
// primary's log; these hooks let tests violate that (silent state
// corruption on an untrusted server, §2's "the infrastructure itself
// is not to be trusted") and let the auditor restore it.

// Clone returns an independent replica with the same state as src:
// same base version, same log, same tentative set, same version vector
// (the dedup table is rebuilt from the first two).  The audit layer
// repairs a corrupted secondary by cloning a known-good peer — an
// exact state transfer, unlike replaying the log into a fresh replica,
// which would re-run guard checks against the corrupted-then-reset
// base and could diverge.  The base Version pointer is shared; honest
// code never mutates committed versions (TamperBase clones first).
func Clone(src *Replica) *Replica {
	r := &Replica{
		base:      src.base,
		Log:       src.Log.Clone(),
		tentative: slices.Clone(src.tentative),
		vv:        maps.Clone(src.vv),
		known:     make(map[update.UpdateID]int, len(src.known)),
	}
	r.reindex()
	return r
}

// AdoptFrom overwrites this replica's state with a clone of src's —
// targeted repair in place, so every handler and ring table holding
// this *Replica keeps working after the repair.
func (r *Replica) AdoptFrom(src *Replica) {
	c := Clone(src)
	c.om = r.om // keep the observability hookup of the repaired replica
	*r = *c
}

// TamperBase corrupts the replica's committed state in place — the
// silent state corruption of an untrusted server.  The version (and
// its block table) is cloned before mutation: committed Versions are
// shared across replicas and history, and corruption on one server
// must not teleport into its peers.  Tentative replay caches are
// invalidated so reads observe the corruption.
func (r *Replica) TamperBase(mut func(v *object.Version)) {
	// Build a fresh Version (not a struct copy): a copy would carry the
	// source's cached GUID, and a stale clean root would mask the very
	// corruption the integrity machinery must detect.
	v := object.Version{
		Num:       r.base.Num,
		Blocks:    make([]object.Block, len(r.base.Blocks)),
		Top:       append([]uint32(nil), r.base.Top...),
		Size:      r.base.Size,
		Prev:      r.base.Prev,
		Timestamp: r.base.Timestamp,
		Index:     r.base.Index,
	}
	for i, b := range r.base.Blocks {
		v.Blocks[i] = object.Block{Tag: b.Tag, CT: append([]byte(nil), b.CT...)}
	}
	mut(&v)
	r.base = &v
	r.cacheValid = false
}
