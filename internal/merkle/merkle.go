// Package merkle implements the hierarchical fragment-verification
// scheme of paper §4.5.
//
// To preserve the erasure property — a fragment is either retrieved
// correctly and completely, or not at all — OceanStore hashes each
// fragment, then recursively hashes concatenated pairs to form a binary
// tree.  Each fragment travels with the sibling hashes along its path
// to the root, so any receiver can recompute the path and check it
// against the top-most hash.  The top-most hash doubles as the GUID of
// the immutable archival object, making every fragment in the archive
// completely self-verifying.
package merkle

import (
	"crypto/sha1"
	"hash"

	"oceanstore/internal/guid"
)

// Domain-separation prefixes: an inner node can never be confused with
// a leaf (a classic second-preimage hardening).  Package-level vars so
// the byte slices passed to hash.Hash (an interface, whose arguments
// escape) are allocated once, not per node.
var (
	leafPrefix = []byte{0x00}
	pairPrefix = []byte{0x01}
)

// hashLeaf and hashPair reuse the caller's digest and sum directly into
// the GUID's backing array, so tree construction allocates little per
// node — archival encoding Merkle-wraps every fragment of every commit,
// which makes these the second-hottest loop in the archive path after
// the GF kernels.
func hashLeaf(h hash.Hash, data []byte) guid.GUID {
	h.Reset()
	h.Write(leafPrefix)
	h.Write(data)
	var g guid.GUID
	h.Sum(g[:0])
	return g
}

func hashPair(h hash.Hash, l, r guid.GUID) guid.GUID {
	h.Reset()
	h.Write(pairPrefix)
	h.Write(l[:])
	h.Write(r[:])
	var g guid.GUID
	h.Sum(g[:0])
	return g
}

// Tree is a binary hash tree over an ordered fragment set.  Odd nodes
// at any level are carried up unchanged.
type Tree struct {
	levels [][]guid.GUID // levels[0] = leaf hashes, last = [root]
}

// Build constructs the tree over the given fragments.  It panics on an
// empty set: an archival object always has at least one fragment.
func Build(fragments [][]byte) *Tree {
	if len(fragments) == 0 {
		panic("merkle: no fragments")
	}
	h := sha1.New()
	level := make([]guid.GUID, len(fragments))
	for i, f := range fragments {
		level[i] = hashLeaf(h, f)
	}
	t := &Tree{levels: [][]guid.GUID{level}}
	for len(level) > 1 {
		next := make([]guid.GUID, (len(level)+1)/2)
		for j := range next {
			if 2*j+1 < len(level) {
				next[j] = hashPair(h, level[2*j], level[2*j+1])
			} else {
				next[j] = level[2*j] // odd carry, unchanged
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// Hasher computes the same root as Build, one leaf at a time, without
// materialising the leaf set or the tree.  Callers that only need the
// root (version GUIDs, integrity spot-checks) feed leaves as they are
// assembled in a reusable buffer and never hold more than O(log n)
// intermediate hashes.
//
// The incremental rule is the mountain-range form of Build's level-wise
// collapse: each leaf is pushed at height 0, and adjacent stack entries
// of equal height merge immediately.  The stack then holds the roots of
// the maximal complete subtrees over prefix-aligned ranges — heights
// strictly decreasing left to right — and Root folds them right to left,
// which is exactly Build's carry-odd-nodes-up-unchanged rule.
// TestHasherMatchesBuild pins the equivalence across leaf counts.
//
// A Hasher is single-goroutine; Root is terminal (call Reset before
// feeding more leaves).
type Hasher struct {
	h       hash.Hash
	stack   []guid.GUID
	heights []uint8
	leaves  int
}

// NewHasher returns an empty streaming root builder.
func NewHasher() *Hasher { return &Hasher{h: sha1.New()} }

// Reset discards all pending state so the Hasher can start a new root.
func (s *Hasher) Reset() {
	s.stack = s.stack[:0]
	s.heights = s.heights[:0]
	s.leaves = 0
}

// Leaf feeds the next fragment.  The data is consumed before Leaf
// returns; the caller may reuse the buffer.
func (s *Hasher) Leaf(data []byte) {
	s.stack = append(s.stack, guid.GUID{})
	s.h.Reset()
	s.h.Write(leafPrefix)
	s.h.Write(data)
	s.h.Sum(s.stack[len(s.stack)-1][:0])
	s.heights = append(s.heights, 0)
	s.leaves++
	for n := len(s.heights); n >= 2 && s.heights[n-1] == s.heights[n-2]; n = len(s.heights) {
		s.foldTop()
		s.heights[len(s.heights)-1]++
	}
}

// foldTop replaces the top two stack entries with their pair hash.
func (s *Hasher) foldTop() {
	i := len(s.stack) - 2
	s.h.Reset()
	s.h.Write(pairPrefix)
	s.h.Write(s.stack[i][:])
	s.h.Write(s.stack[i+1][:])
	s.h.Sum(s.stack[i][:0])
	s.stack = s.stack[:i+1]
	s.heights = s.heights[:i+1]
}

// Root collapses the pending subtrees and returns the root Build would
// produce over the same leaf sequence.  It panics on an empty Hasher,
// matching Build's no-fragments panic.
func (s *Hasher) Root() guid.GUID {
	if s.leaves == 0 {
		panic("merkle: no fragments")
	}
	for len(s.stack) > 1 {
		s.foldTop()
	}
	return s.stack[0]
}

// Root returns the top-most hash — the GUID of the archival object.
func (t *Tree) Root() guid.GUID {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// Leaves returns the number of fragments the tree covers.
func (t *Tree) Leaves() int { return len(t.levels[0]) }

// Proof returns the sibling hashes neighbouring fragment i's path to
// the root, bottom-up.  Levels where i has no sibling (odd carry)
// contribute nothing; Verify reconstructs the same shape from the
// fragment count.
func (t *Tree) Proof(i int) []guid.GUID {
	if i < 0 || i >= t.Leaves() {
		panic("merkle: proof index out of range")
	}
	var proof []guid.GUID
	idx := i
	for _, level := range t.levels[:len(t.levels)-1] {
		sib := idx ^ 1
		if sib < len(level) {
			proof = append(proof, level[sib])
		}
		idx /= 2
	}
	return proof
}

// Verify checks that data is fragment index of a total-fragment archive
// whose tree root is root, using the sibling path proof.  It returns
// false for any corruption of the data, the proof, the index, or the
// root — the retrieved-correctly-or-not-at-all property.
func Verify(data []byte, index, total int, proof []guid.GUID, root guid.GUID) bool {
	if index < 0 || index >= total || total < 1 {
		return false
	}
	d := sha1.New()
	h := hashLeaf(d, data)
	idx, width, p := index, total, 0
	for width > 1 {
		sib := idx ^ 1
		if sib < width {
			if p >= len(proof) {
				return false
			}
			if idx%2 == 0 {
				h = hashPair(d, h, proof[p])
			} else {
				h = hashPair(d, proof[p], h)
			}
			p++
		}
		idx /= 2
		width = (width + 1) / 2
	}
	return p == len(proof) && h == root
}
