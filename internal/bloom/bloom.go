// Package bloom implements Bloom filters, attenuated Bloom filters, and
// the probabilistic data-location algorithm of paper §4.3.2 (Figure 2).
//
// OceanStore locates replicas in two tiers.  The first tier is a fast,
// fully distributed probabilistic search: every node keeps, for each of
// its outgoing edges, an *attenuated* Bloom filter — an array of D
// ordinary Bloom filters in which the i-th filter summarises the
// objects stored i+1 hops away through that edge.  A query hill-climbs:
// if the local store misses, it is forwarded along the edge whose
// filter claims the object at the smallest distance.  If no filter
// matches (or the query exhausts its time-to-live chasing false
// positives), location falls back to the deterministic global algorithm
// (package plaxton).
package bloom

import (
	"encoding/binary"

	"oceanstore/internal/guid"
)

// Filter is a classic Bloom filter over GUIDs with m bits and k hash
// functions.  Filters with equal geometry can be unioned, which is how
// attenuated layers aggregate neighbourhood contents.
type Filter struct {
	bits []uint64
	m    uint32 // number of bits
	k    int    // number of hash probes
}

// NewFilter creates a filter with mBits bits (rounded up to a multiple
// of 64) and k hash functions.
func NewFilter(mBits int, k int) *Filter {
	if mBits < 64 {
		mBits = 64
	}
	if k < 1 {
		k = 1
	}
	words := (mBits + 63) / 64
	return &Filter{bits: make([]uint64, words), m: uint32(words * 64), k: k}
}

// probe yields the i-th bit index for g via double hashing over the two
// independent 64-bit lanes of the (already uniformly distributed) GUID.
func (f *Filter) probe(g guid.GUID, i int) uint32 {
	h1 := binary.BigEndian.Uint64(g[:8])
	h2 := binary.BigEndian.Uint64(g[8:16]) | 1 // odd => full cycle
	return uint32((h1 + uint64(i)*h2) % uint64(f.m))
}

// Add inserts a GUID.
func (f *Filter) Add(g guid.GUID) {
	for i := 0; i < f.k; i++ {
		p := f.probe(g, i)
		f.bits[p/64] |= 1 << (p % 64)
	}
}

// Test reports whether g may be present (false positives possible,
// false negatives impossible).
func (f *Filter) Test(g guid.GUID) bool {
	for i := 0; i < f.k; i++ {
		p := f.probe(g, i)
		if f.bits[p/64]&(1<<(p%64)) == 0 {
			return false
		}
	}
	return true
}

// Union ORs other into f.  Panics if geometries differ: unioning
// incompatible filters would silently corrupt membership answers.
func (f *Filter) Union(other *Filter) {
	if f.m != other.m || f.k != other.k {
		panic("bloom: union of incompatible filters")
	}
	for i := range f.bits {
		f.bits[i] |= other.bits[i]
	}
}

// Clear zeroes the filter.
func (f *Filter) Clear() {
	for i := range f.bits {
		f.bits[i] = 0
	}
}

// CopyFrom overwrites f's bits with other's.
func (f *Filter) CopyFrom(other *Filter) {
	if f.m != other.m || f.k != other.k {
		panic("bloom: copy of incompatible filters")
	}
	copy(f.bits, other.bits)
}

// SizeBytes is the wire size of the filter, for byte accounting.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// Attenuated is an attenuated Bloom filter of depth D: Layer(0)
// summarises objects one hop away through an edge, Layer(i) objects
// i+1 hops away through any path over that edge (paper §4.3.2).
type Attenuated struct {
	layers []*Filter
}

// NewAttenuated creates a depth-D attenuated filter whose layers share
// the given geometry.
func NewAttenuated(depth, mBits, k int) *Attenuated {
	a := &Attenuated{layers: make([]*Filter, depth)}
	for i := range a.layers {
		a.layers[i] = NewFilter(mBits, k)
	}
	return a
}

// Layer returns the i-th layer.
func (a *Attenuated) Layer(i int) *Filter { return a.layers[i] }

// FirstMatch returns the smallest layer index whose filter claims g,
// or -1 when no layer matches.  This is the potential function the
// hill-climbing query minimises.
func (a *Attenuated) FirstMatch(g guid.GUID) int {
	for i, f := range a.layers {
		if f.Test(g) {
			return i
		}
	}
	return -1
}

// SizeBytes is the wire size of all layers.
func (a *Attenuated) SizeBytes() int {
	n := 0
	for _, f := range a.layers {
		n += f.SizeBytes()
	}
	return n
}
