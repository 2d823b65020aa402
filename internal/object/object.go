// Package object implements OceanStore's persistent data objects: a
// versioned sequence of encrypted blocks supporting the ciphertext
// operations of paper §4.4.2 (Figure 4).
//
// An object version is an append-only array of *physical* ciphertext
// blocks plus a small amount of server-visible metadata: the version
// number, the logical size, and the ordered list of top-level physical
// block indexes.  The *logical* content is defined entirely by
// client-side interpretation: a decrypted block is either a data block,
// a pointer block (children expanded in order, enabling ciphertext
// insert), or an empty pointer block (enabling ciphertext delete).
// Servers never hold the key; they apply position-addressed operations
// — replace, append — without learning anything about block contents,
// exactly as in Figure 4.  The paper notes the structural metadata
// "leaks a small amount of information", which it accepts.
//
// Each block carries a client-chosen *tag* that parameterises the
// position-dependent cipher.  Binding the keystream to the tag rather
// than to the array slot keeps the cipher position-dependent (equal
// plaintexts in different blocks encrypt differently) while letting
// append operations commute: concurrent appends serialised in either
// order still decrypt, which the Bayou-style tentative reordering of
// the secondary tier requires (§4.4.3).
//
// Every group of committed updates produces a new version (§2); the
// version's GUID is the Merkle root over its ciphertext blocks, so
// version GUIDs double as permanent, self-verifying hyperlinks (§4.5).
package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/merkle"
)

// Block kinds, stored as the first plaintext byte of every block.
const (
	kindData    = 0x01
	kindPointer = 0x02
	kindEmpty   = 0x03
)

// ErrMalformedBlock reports a plaintext block that fails to parse —
// either corruption or decryption with a wrong key.
var ErrMalformedBlock = errors.New("object: malformed block")

// Block is one stored ciphertext block: the server-visible cipher tag
// plus the ciphertext.  The tag is opaque to servers.
type Block struct {
	Tag uint64
	CT  []byte
}

// Digest hashes the block (tag and ciphertext), the quantity the
// compare-block predicate tests.  Computable with no key.
func (b Block) Digest() guid.GUID { return crypt.BlockDigest(b.Tag, b.CT) }

// EncodeDataBlock wraps payload as a data block plaintext.
func EncodeDataBlock(payload []byte) []byte {
	out := make([]byte, 1+len(payload))
	out[0] = kindData
	copy(out[1:], payload)
	return out
}

// EncodePointerBlock wraps an ordered child list as a pointer block.
func EncodePointerBlock(children []uint32) []byte {
	out := make([]byte, 1+4+4*len(children))
	out[0] = kindPointer
	binary.BigEndian.PutUint32(out[1:], uint32(len(children)))
	for i, c := range children {
		binary.BigEndian.PutUint32(out[5+4*i:], c)
	}
	return out
}

// EncodeEmptyBlock is the plaintext of an empty pointer block, which a
// ciphertext delete swaps in place of the deleted block.
func EncodeEmptyBlock() []byte { return []byte{kindEmpty} }

// decodeBlock parses a plaintext block.
func decodeBlock(p []byte) (kind byte, payload []byte, children []uint32, err error) {
	if len(p) == 0 {
		return 0, nil, nil, ErrMalformedBlock
	}
	switch p[0] {
	case kindData:
		return kindData, p[1:], nil, nil
	case kindEmpty:
		return kindEmpty, nil, nil, nil
	case kindPointer:
		if len(p) < 5 {
			return 0, nil, nil, ErrMalformedBlock
		}
		n := binary.BigEndian.Uint32(p[1:])
		if uint32(len(p)-5) < 4*n {
			return 0, nil, nil, ErrMalformedBlock
		}
		ch := make([]uint32, n)
		for i := range ch {
			ch[i] = binary.BigEndian.Uint32(p[5+4*i:])
		}
		return kindPointer, nil, ch, nil
	default:
		return 0, nil, nil, ErrMalformedBlock
	}
}

// Version is one immutable snapshot of an object.  Blocks hold
// ciphertext; Top orders the top-level physical indexes; Size is the
// logical plaintext byte count (server-visible metadata used by the
// compare-size predicate).
type Version struct {
	Num       uint64
	Blocks    []Block
	Top       []uint32
	Size      int64
	Prev      guid.GUID // GUID of the previous version, forming a chain
	Timestamp time.Duration
	// Index is the optional server-visible encrypted word index used by
	// the search predicate (§4.4.2).  Cells are opaque without a
	// trapdoor; see crypt.WordIndex.
	Index *crypt.WordIndex

	// guidMemo caches the Merkle root (GUID): versions are immutable
	// snapshots, so each one's root is computed at most once.  The
	// in-package mutators — which only ever run on a freshly cloned
	// successor during update application — drop the memo.  Code that
	// corrupts a version in place (tamper harnesses) must construct a
	// fresh Version or the stale root would mask the damage.
	guidMemo guid.GUID
	guidSet  bool
}

// versionHasher bundles a streaming Merkle root builder with a
// reusable leaf-assembly buffer.  Version GUIDs are recomputed on every
// commit of every object, and materialising the leaf set (one slice
// per block, copied) was a top allocator in soak profiles; the pool
// makes a GUID computation cost O(log blocks) transient state.  The
// GUID is a pure function of the version, so pooling cannot perturb
// deterministic runs.
type versionHasher struct {
	hs  *merkle.Hasher
	buf []byte
}

var vhPool = sync.Pool{New: func() any { return &versionHasher{hs: merkle.NewHasher()} }}

// GUID returns the version's self-verifying identity: the Merkle root
// over its ciphertext blocks mixed with its metadata.  Any change to
// any block or to the structure changes the GUID.
func (v *Version) GUID() guid.GUID {
	if v.guidSet {
		return v.guidMemo
	}
	p := vhPool.Get().(*versionHasher)
	hs := p.hs
	hs.Reset()
	// Leaf 0: the structural metadata.
	buf := p.buf[:0]
	buf = binary.BigEndian.AppendUint64(buf, v.Num)
	buf = binary.BigEndian.AppendUint64(buf, uint64(v.Size))
	for _, tp := range v.Top {
		buf = binary.BigEndian.AppendUint32(buf, tp)
	}
	buf = append(buf, v.Prev[:]...)
	hs.Leaf(buf)
	// One leaf per block: tag || ciphertext, assembled in place.
	for _, b := range v.Blocks {
		buf = buf[:0]
		buf = binary.BigEndian.AppendUint64(buf, b.Tag)
		buf = append(buf, b.CT...)
		hs.Leaf(buf)
	}
	if v.Index != nil {
		for _, cell := range v.Index.Cells {
			hs.Leaf(cell)
		}
	}
	p.buf = buf
	v.guidMemo, v.guidSet = hs.Root(), true
	vhPool.Put(p)
	return v.guidMemo
}

// Clone makes a copy-on-write successor: block contents are shared,
// the slices are fresh, and the version number advances.
func (v *Version) Clone(now time.Duration) *Version {
	nv := &Version{
		Num:       v.Num + 1,
		Blocks:    append([]Block(nil), v.Blocks...),
		Top:       append([]uint32(nil), v.Top...),
		Size:      v.Size,
		Prev:      v.GUID(),
		Timestamp: now,
		Index:     v.Index,
	}
	return nv
}

// BytesStored reports the total ciphertext bytes this version holds.
func (v *Version) BytesStored() int {
	n := 0
	for _, b := range v.Blocks {
		n += 8 + len(b.CT)
	}
	return n
}

// ---- Server-side primitive operations (ciphertext only) ----

// ApplyReplace overwrites the block at physical position pos.
func (v *Version) ApplyReplace(pos uint32, b Block) error {
	if int(pos) >= len(v.Blocks) {
		return fmt.Errorf("object: replace position %d out of range (%d blocks)", pos, len(v.Blocks))
	}
	v.Blocks[pos] = b
	v.guidSet = false
	return nil
}

// ApplyAppend appends ciphertext blocks, optionally adding them to the
// top-level sequence (a logical append) or leaving them reachable only
// through pointer blocks (the insert scheme of Figure 4).
func (v *Version) ApplyAppend(blocks []Block, toTop bool) []uint32 {
	idxs := make([]uint32, len(blocks))
	for i, b := range blocks {
		idxs[i] = uint32(len(v.Blocks))
		v.Blocks = append(v.Blocks, b)
		if toTop {
			v.Top = append(v.Top, idxs[i])
		}
	}
	v.guidSet = false
	return idxs
}

// BlockDigest returns the digest of the block at pos, for the
// compare-block predicate.  The server computes this with no key.
func (v *Version) BlockDigest(pos uint32) (guid.GUID, error) {
	if int(pos) >= len(v.Blocks) {
		return guid.Zero, fmt.Errorf("object: digest position %d out of range", pos)
	}
	return v.Blocks[pos].Digest(), nil
}

// ---- Client-side view (requires the key) ----

// View decrypts and interprets a version for a client holding the key.
type View struct {
	v  *Version
	bc *crypt.BlockCipher
}

// NewView wraps a version with the object's block key.
func NewView(v *Version, key crypt.BlockKey) *View {
	return &View{v: v, bc: crypt.NewBlockCipher(key)}
}

// ViewWith wraps a version with an already-built cipher, so callers
// holding a per-object cipher (crypt.KeyRing.Cipher) skip the AES key
// expansion NewView pays on every call.
func ViewWith(v *Version, bc *crypt.BlockCipher) *View {
	return &View{v: v, bc: bc}
}

// Read returns the full logical plaintext of the version, expanding
// pointer blocks depth-first in order.
func (vw *View) Read() ([]byte, error) {
	var out []byte
	for _, top := range vw.v.Top {
		var err error
		out, err = vw.expand(out, top, 0)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (vw *View) expand(out []byte, pos uint32, depth int) ([]byte, error) {
	if depth > len(vw.v.Blocks) {
		return nil, errors.New("object: pointer cycle detected")
	}
	if int(pos) >= len(vw.v.Blocks) {
		return nil, fmt.Errorf("object: dangling pointer to block %d", pos)
	}
	blk := vw.v.Blocks[pos]
	kind, payload, children, err := decodeBlock(vw.bc.DecryptBlock(blk.Tag, blk.CT))
	if err != nil {
		return nil, err
	}
	switch kind {
	case kindData:
		out = append(out, payload...)
	case kindPointer:
		for _, c := range children {
			out, err = vw.expand(out, c, depth+1)
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// LogicalBlocks returns the physical positions of the data blocks in
// logical order — the addressing clients use to build insert/delete
// operations.
func (vw *View) LogicalBlocks() ([]uint32, error) {
	var out []uint32
	var walk func(pos uint32, depth int) error
	walk = func(pos uint32, depth int) error {
		if depth > len(vw.v.Blocks) {
			return errors.New("object: pointer cycle detected")
		}
		if int(pos) >= len(vw.v.Blocks) {
			return fmt.Errorf("object: dangling pointer to block %d", pos)
		}
		blk := vw.v.Blocks[pos]
		kind, _, children, err := decodeBlock(vw.bc.DecryptBlock(blk.Tag, blk.CT))
		if err != nil {
			return err
		}
		switch kind {
		case kindData:
			out = append(out, pos)
		case kindPointer:
			for _, c := range children {
				if err := walk(c, depth+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, top := range vw.v.Top {
		if err := walk(top, 0); err != nil {
			return nil, err
		}
	}
	return out, nil
}
