package archive

import (
	"errors"
	"sync"
	"time"

	"oceanstore/internal/erasure"
	"oceanstore/internal/guid"
	"oceanstore/internal/merkle"
	"oceanstore/internal/simnet"
)

// framedPool recycles the length-prefixed staging buffer Encode builds
// before erasure coding.  Commit-coupled archival encodes the same
// object sizes over and over; the buffer never escapes Encode, so it is
// the cheapest allocation to eliminate.
var framedPool sync.Pool

func getFramed(size int) []byte {
	if p, ok := framedPool.Get().(*[]byte); ok && cap(*p) >= size {
		return (*p)[:size]
	}
	return make([]byte, size)
}

func putFramed(b []byte) { framedPool.Put(&b) }

// StoredFragment is one self-verifying archival fragment: the coded
// data plus its sibling hash path to the archive root (§4.5).  The
// root doubles as the GUID of the immutable archival object.
type StoredFragment struct {
	Root  guid.GUID
	Index int
	Total int
	Data  []byte
	Proof []guid.GUID
}

// Verify checks the fragment against its own root — retrieved
// correctly and completely, or not at all.
func (sf *StoredFragment) Verify() bool {
	return merkle.Verify(sf.Data, sf.Index, sf.Total, sf.Proof, sf.Root)
}

// WireSize is the fragment's bytes on the wire.
func (sf *StoredFragment) WireSize() int {
	return len(sf.Data) + guid.Size*(len(sf.Proof)+1) + 16
}

// Config fixes an archive's code geometry: a Reed-Solomon code of n
// data shards into f fragments.  Rate-1/2 into 32 fragments is the
// paper's running example; the number of fragments is chosen
// per-object (§4.5).
type Config struct {
	DataShards     int // n
	TotalFragments int // f
}

// codecCache memoises codecs per Config.  Construction is pure — it
// depends only on (n, f) — and built codecs are immutable and safe for
// concurrent use, so every archive with the same geometry shares one
// codec.  Sharing is what makes the decode-matrix cache effective
// across a repair storm: thousands of Encode/Decode calls per
// experiment, a handful of distinct Configs.
var codecCache sync.Map // Config -> *erasure.ReedSolomon

// Codec returns the (cached) erasure codec for this configuration.
func (c Config) Codec() (*erasure.ReedSolomon, error) {
	if v, ok := codecCache.Load(c); ok {
		return v.(*erasure.ReedSolomon), nil
	}
	codec, err := erasure.NewReedSolomon(c.DataShards, c.TotalFragments)
	if err != nil {
		return nil, err
	}
	v, _ := codecCache.LoadOrStore(c, codec)
	return v.(*erasure.ReedSolomon), nil
}

// Encode erasure-codes data and wraps every fragment with its
// verification path.  It returns the archival GUID (the tree root) and
// the fragment set.  The original length is prefixed so reconstruction
// is self-contained.
func Encode(data []byte, cfg Config) (guid.GUID, []StoredFragment, error) {
	codec, err := cfg.Codec()
	if err != nil {
		return guid.Zero, nil, err
	}
	framed := getFramed(8 + len(data))
	framed[0] = byte(len(data) >> 56)
	framed[1] = byte(len(data) >> 48)
	framed[2] = byte(len(data) >> 40)
	framed[3] = byte(len(data) >> 32)
	framed[4] = byte(len(data) >> 24)
	framed[5] = byte(len(data) >> 16)
	framed[6] = byte(len(data) >> 8)
	framed[7] = byte(len(data))
	copy(framed[8:], data)

	frags, err := codec.Encode(framed)
	putFramed(framed) // the codec copied it into shards; safe to recycle
	if err != nil {
		return guid.Zero, nil, err
	}
	leaves := make([][]byte, len(frags))
	for i, f := range frags {
		leaves[i] = f.Data
	}
	tree := merkle.Build(leaves)
	root := tree.Root()
	out := make([]StoredFragment, len(frags))
	for i, f := range frags {
		out[i] = StoredFragment{
			Root:  root,
			Index: f.Index,
			Total: len(frags),
			Data:  f.Data,
			Proof: tree.Proof(i),
		}
	}
	return root, out, nil
}

// Decode reconstructs the original data from verified fragments.
func Decode(frags []StoredFragment, cfg Config) ([]byte, error) {
	codec, err := cfg.Codec()
	if err != nil {
		return nil, err
	}
	var es []erasure.Fragment
	var sample *StoredFragment
	for i := range frags {
		if !frags[i].Verify() {
			continue // self-verification rejects corrupt fragments
		}
		es = append(es, erasure.Fragment{Index: frags[i].Index, Data: frags[i].Data})
		if sample == nil {
			sample = &frags[i]
		}
	}
	if sample == nil {
		return nil, erasure.ErrNotEnoughFragments
	}
	// The framed length sits in the first 8 bytes; shard length is
	// uniform, so total framed length = shardLen * n.  Decode with the
	// maximum possible length, then trim using the embedded prefix.
	shardLen := len(sample.Data)
	framedLen := shardLen * cfg.DataShards
	framed, err := codec.Decode(es, framedLen)
	if err != nil {
		return nil, err
	}
	if len(framed) < 8 {
		return nil, errors.New("archive: framed data too short")
	}
	n := int(uint64(framed[0])<<56 | uint64(framed[1])<<48 | uint64(framed[2])<<40 |
		uint64(framed[3])<<32 | uint64(framed[4])<<24 | uint64(framed[5])<<16 |
		uint64(framed[6])<<8 | uint64(framed[7]))
	if n < 0 || n > len(framed)-8 {
		return nil, errors.New("archive: corrupt length prefix")
	}
	return framed[8 : 8+n], nil
}

// Placement maps fragment index → storage node: Placement[i] holds
// fragment i.
type Placement []simnet.NodeID

// retrievalState tracks one in-flight reconstruction.
type retrievalState struct {
	root guid.GUID
	cfg  Config
	// got[i] is fragment i once it has arrived (a zero Total until
	// then); have counts the arrived ones.
	got     []StoredFragment
	have    int
	done    bool
	cb      func(data []byte, err error, latency time.Duration)
	started time.Duration
}
