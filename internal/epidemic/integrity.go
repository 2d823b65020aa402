package epidemic

import "oceanstore/internal/object"

// TamperBase corrupts the replica's committed state in place — the
// silent state corruption of an untrusted server (§2: "the
// infrastructure itself is not to be trusted") that the replica auditor
// exists to catch, and Adopt repairs.  The version (and
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
	r.cached = nil
}
