package object

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"

	"oceanstore/internal/crypt"
)

// OpKind distinguishes the two primitive ciphertext operations servers
// can apply (§4.4.2): overwriting a physical position and appending
// new physical blocks.
type OpKind byte

// Primitive operation kinds.
const (
	OpReplace OpKind = iota + 1
	OpAppend
)

// Op is one primitive, server-applicable ciphertext operation.  Ops are
// constructed by clients (who hold the key) and applied by servers (who
// do not).  SizeDelta adjusts the server-visible logical size metadata.
type Op struct {
	Kind      OpKind
	Pos       uint32  // OpReplace: the physical position to overwrite
	Blocks    []Block // exactly 1 for replace, ≥1 for append
	ToTop     bool    // OpAppend: also extend the top-level sequence
	SizeDelta int64
}

// WireSize estimates the op's bytes on the wire.
func (o Op) WireSize() int {
	n := 1 + 4 + 1 + 8
	for _, b := range o.Blocks {
		n += 4 + 8 + len(b.CT)
	}
	return n
}

// ApplyOp applies one primitive op to the version in place.
func (v *Version) ApplyOp(op Op) error {
	switch op.Kind {
	case OpReplace:
		if len(op.Blocks) != 1 {
			return errors.New("object: replace needs exactly one block")
		}
		if err := v.ApplyReplace(op.Pos, op.Blocks[0]); err != nil {
			return err
		}
	case OpAppend:
		if len(op.Blocks) == 0 {
			return errors.New("object: append needs at least one block")
		}
		v.ApplyAppend(op.Blocks, op.ToTop)
	default:
		return fmt.Errorf("object: unknown op kind %d", op.Kind)
	}
	v.Size += op.SizeDelta
	return nil
}

// Editor builds primitive ops against an assumed base version.  It is
// purely client-side: it decrypts to plan the operation, then emits the
// ciphertext blocks a server will store.  The physical block count is
// tracked locally so multiple ops can be chained into one update.
type Editor struct {
	view     *View
	bc       *crypt.BlockCipher
	physNext uint32   // next free physical position, advanced by appends
	logical  []uint32 // cached logical data-block positions
	salt     uint64   // mixed into fresh block tags
	counter  uint64   // per-editor tag counter
}

// NewEditor creates an editor over base with the object key.
func NewEditor(base *Version, key crypt.BlockKey) (*Editor, error) {
	return EditorWith(base, crypt.NewBlockCipher(key))
}

// EditorWith creates an editor over base reusing an already-built
// cipher (see ViewWith).
func EditorWith(base *Version, bc *crypt.BlockCipher) (*Editor, error) {
	vw := ViewWith(base, bc)
	logical, err := vw.LogicalBlocks()
	if err != nil {
		return nil, err
	}
	return &Editor{
		view:     vw,
		bc:       bc,
		physNext: uint32(len(base.Blocks)),
		logical:  logical,
	}, nil
}

// WithSalt mixes a client-specific salt into generated block tags, so
// concurrent clients appending identical content at the same step still
// produce unlinkable ciphertext.
func (e *Editor) WithSalt(salt uint64) *Editor {
	e.salt = salt
	return e
}

// freshBlock encrypts plaintext under a fresh tag derived from the
// plaintext, the editor salt and a counter.
func (e *Editor) freshBlock(plain []byte) Block {
	tag := newTag(e.salt, e.counter, plain)
	e.counter++
	return Block{Tag: tag, CT: e.bc.EncryptBlock(tag, plain)}
}

// newTag derives a cipher tag.  Tags need not be globally unique — they
// only decorrelate keystreams — but equal (salt, counter, plaintext)
// triples give equal blocks, keeping editors deterministic.
func newTag(salt, counter uint64, plain []byte) uint64 {
	h := sha1.New()
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], salt)
	binary.BigEndian.PutUint64(b[8:], counter)
	h.Write(b[:])
	h.Write(plain)
	var d [sha1.Size]byte
	return binary.BigEndian.Uint64(h.Sum(d[:0]))
}

// Append emits an op appending payload as a new top-level data block.
func (e *Editor) Append(payload []byte) Op {
	pos := e.physNext
	e.physNext++
	e.logical = append(e.logical, pos)
	return Op{
		Kind:      OpAppend,
		Blocks:    []Block{e.freshBlock(EncodeDataBlock(payload))},
		ToTop:     true,
		SizeDelta: int64(len(payload)),
	}
}

// InsertBefore emits the Figure-4 insert: the new block and a re-
// encrypted copy of the displaced block are appended (not top-level),
// and the displaced physical position is replaced by a pointer block to
// the pair.  The server learns nothing about any block's contents.
func (e *Editor) InsertBefore(logicalIdx int, payload []byte) ([]Op, error) {
	if logicalIdx < 0 || logicalIdx >= len(e.logical) {
		return nil, fmt.Errorf("object: insert index %d out of range (%d logical blocks)", logicalIdx, len(e.logical))
	}
	oldPos := e.logical[logicalIdx]
	oldPlain, err := e.decryptAt(oldPos)
	if err != nil {
		return nil, err
	}
	newPos, movedPos := e.physNext, e.physNext+1
	e.physNext += 2
	appendOp := Op{
		Kind: OpAppend,
		Blocks: []Block{
			e.freshBlock(EncodeDataBlock(payload)),
			e.freshBlock(oldPlain),
		},
		SizeDelta: int64(len(payload)),
	}
	replaceOp := Op{
		Kind:   OpReplace,
		Pos:    oldPos,
		Blocks: []Block{e.freshBlock(EncodePointerBlock([]uint32{newPos, movedPos}))},
	}
	// The logical sequence now has the new block at logicalIdx and the
	// displaced block right after it.
	e.logical = append(e.logical[:logicalIdx], append([]uint32{newPos, movedPos}, e.logical[logicalIdx+1:]...)...)
	return []Op{appendOp, replaceOp}, nil
}

// Delete emits the Figure-4 delete: the block at the logical index is
// replaced with an empty pointer block.
func (e *Editor) Delete(logicalIdx int) (Op, error) {
	if logicalIdx < 0 || logicalIdx >= len(e.logical) {
		return Op{}, fmt.Errorf("object: delete index %d out of range (%d logical blocks)", logicalIdx, len(e.logical))
	}
	pos := e.logical[logicalIdx]
	oldPayload, err := e.payloadAt(pos)
	if err != nil {
		return Op{}, err
	}
	e.logical = append(e.logical[:logicalIdx], e.logical[logicalIdx+1:]...)
	return Op{
		Kind:      OpReplace,
		Pos:       pos,
		Blocks:    []Block{e.freshBlock(EncodeEmptyBlock())},
		SizeDelta: -int64(len(oldPayload)),
	}, nil
}

// Replace emits an op overwriting the data block at a logical index.
func (e *Editor) Replace(logicalIdx int, payload []byte) (Op, error) {
	if logicalIdx < 0 || logicalIdx >= len(e.logical) {
		return Op{}, fmt.Errorf("object: replace index %d out of range (%d logical blocks)", logicalIdx, len(e.logical))
	}
	pos := e.logical[logicalIdx]
	oldPayload, err := e.payloadAt(pos)
	if err != nil {
		return Op{}, err
	}
	return Op{
		Kind:      OpReplace,
		Pos:       pos,
		Blocks:    []Block{e.freshBlock(EncodeDataBlock(payload))},
		SizeDelta: int64(len(payload)) - int64(len(oldPayload)),
	}, nil
}

// ExpectedBlock returns the block a given payload would occupy at the
// physical position backing a logical index — the client half of the
// compare-block predicate.  The stored block's tag (server-visible,
// client-readable) parameterises the expected ciphertext.
func (e *Editor) ExpectedBlock(logicalIdx int, payload []byte) (Block, uint32, error) {
	if logicalIdx < 0 || logicalIdx >= len(e.logical) {
		return Block{}, 0, fmt.Errorf("object: index %d out of range", logicalIdx)
	}
	pos := e.logical[logicalIdx]
	tag := e.view.v.Blocks[pos].Tag
	return Block{Tag: tag, CT: e.bc.EncryptBlock(tag, EncodeDataBlock(payload))}, pos, nil
}

func (e *Editor) decryptAt(pos uint32) ([]byte, error) {
	if int(pos) >= len(e.view.v.Blocks) {
		return nil, fmt.Errorf("object: position %d beyond base version", pos)
	}
	blk := e.view.v.Blocks[pos]
	return e.bc.DecryptBlock(blk.Tag, blk.CT), nil
}

func (e *Editor) payloadAt(pos uint32) ([]byte, error) {
	plain, err := e.decryptAt(pos)
	if err != nil {
		return nil, err
	}
	kind, payload, _, err := decodeBlock(plain)
	if err != nil {
		return nil, err
	}
	if kind != kindData {
		return nil, errors.New("object: logical index does not name a data block")
	}
	return payload, nil
}

// NewObject builds version 0 of an object from payload, split into
// blockSize-byte data blocks encrypted under key.
func NewObject(payload []byte, blockSize int, key crypt.BlockKey) *Version {
	if blockSize < 1 {
		blockSize = 4096
	}
	bc := crypt.NewBlockCipher(key)
	v := &Version{Num: 0, Size: int64(len(payload))}
	for pos, off := uint32(0), 0; off < len(payload) || pos == 0; pos++ {
		end := off + blockSize
		if end > len(payload) {
			end = len(payload)
		}
		plain := EncodeDataBlock(payload[off:end])
		tag := newTag(0, uint64(pos), plain)
		v.Blocks = append(v.Blocks, Block{Tag: tag, CT: bc.EncryptBlock(tag, plain)})
		v.Top = append(v.Top, pos)
		off = end
		if off >= len(payload) {
			break
		}
	}
	return v
}
