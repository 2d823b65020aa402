package archive

import (
	"errors"
	"sort"
	"sync"
	"time"

	"oceanstore/internal/erasure"
	"oceanstore/internal/guid"
	"oceanstore/internal/merkle"
	"oceanstore/internal/par"
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

// Config fixes an archive's code geometry.  Rate-1/2 into 32 fragments
// is the paper's running example; the number of fragments is chosen
// per-object (§4.5).
type Config struct {
	DataShards     int // n
	TotalFragments int // f
	// UseTornado selects the fast XOR code instead of Reed-Solomon.
	UseTornado bool
	// TornadoSeed fixes the peeling graph.
	TornadoSeed int64
}

// codecCache memoises codecs per Config.  Construction is pure — RS
// depends only on (n, f), Tornado on (n, f, seed) — and built codecs
// are immutable and safe for concurrent use, so every archive with the
// same geometry shares one codec.  Sharing is what makes the RS
// decode-matrix cache effective across a repair storm: thousands of
// Encode/Decode calls per experiment, a handful of distinct Configs.
var codecCache sync.Map // Config -> erasure.Codec

// Codec returns the (cached) erasure codec for this configuration.
func (c Config) Codec() (erasure.Codec, error) {
	if v, ok := codecCache.Load(c); ok {
		return v.(erasure.Codec), nil
	}
	var codec erasure.Codec
	var err error
	if c.UseTornado {
		codec, err = erasure.NewTornado(c.DataShards, c.TotalFragments, c.TornadoSeed)
	} else {
		codec, err = erasure.NewReedSolomon(c.DataShards, c.TotalFragments)
	}
	if err != nil {
		return nil, err
	}
	v, _ := codecCache.LoadOrStore(c, codec)
	return v.(erasure.Codec), nil
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
	// Proof extraction reads the immutable tree and writes out[i] only
	// — safe to fan out alongside the parallel kernels upstream.
	par.Do(len(frags), 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = StoredFragment{
				Root:  root,
				Index: frags[i].Index,
				Total: len(frags),
				Data:  frags[i].Data,
				Proof: tree.Proof(i),
			}
		}
	})
	return root, out, nil
}

// Decode reconstructs the original data from verified fragments.
func Decode(frags []StoredFragment, cfg Config) ([]byte, error) {
	codec, err := cfg.Codec()
	if err != nil {
		return nil, err
	}
	// Self-verification is per-fragment SHA-1 work — fan it out, then
	// collect survivors in input order so the decode sees the same
	// fragment sequence a serial verify would produce.
	oks := par.Map(len(frags), 2, func(i int) bool { return frags[i].Verify() })
	var es []erasure.Fragment
	var sample *StoredFragment
	for i := range frags {
		if !oks[i] {
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

// Placement maps fragment index → storage node.
type Placement map[int]simnet.NodeID

// NodeStore is the per-server fragment store.
type NodeStore struct {
	frags map[guid.GUID]map[int]StoredFragment
}

// NewNodeStore creates an empty store.
func NewNodeStore() *NodeStore {
	return &NodeStore{frags: make(map[guid.GUID]map[int]StoredFragment)}
}

// Put stores a fragment after verifying it — a well-behaved server
// refuses garbage.
func (ns *NodeStore) Put(sf StoredFragment) error {
	if !sf.Verify() {
		return errors.New("archive: fragment failed self-verification")
	}
	m := ns.frags[sf.Root]
	if m == nil {
		m = make(map[int]StoredFragment)
		ns.frags[sf.Root] = m
	}
	m[sf.Index] = sf
	return nil
}

// Get fetches a fragment by archive root and index.
func (ns *NodeStore) Get(root guid.GUID, index int) (StoredFragment, bool) {
	sf, ok := ns.frags[root][index]
	return sf, ok
}

// Indexes lists the fragment indexes held for an archive.
func (ns *NodeStore) Indexes(root guid.GUID) []int {
	var out []int
	for i := range ns.frags[root] {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Drop removes a fragment (disk loss injection for tests).
func (ns *NodeStore) Drop(root guid.GUID, index int) {
	delete(ns.frags[root], index)
}

// Roots lists the archive roots this store holds fragments of, in GUID
// order.
func (ns *NodeStore) Roots() []guid.GUID {
	out := make([]guid.GUID, 0, len(ns.frags))
	for root, m := range ns.frags {
		if len(m) > 0 {
			out = append(out, root)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Tamper mutates a stored fragment's payload in place — the bit-rot
// injection point.  The payload is cloned first: fragment Data slices
// are shared with in-flight copies and the original encode output, and
// rot on one disk must not teleport into another node's copy.  Unlike
// Put, the result deliberately no longer verifies.
func (ns *NodeStore) Tamper(root guid.GUID, index int, mut func(data []byte)) bool {
	sf, ok := ns.frags[root][index]
	if !ok {
		return false
	}
	sf.Data = append([]byte(nil), sf.Data...)
	mut(sf.Data)
	ns.frags[root][index] = sf
	return true
}

// retrievalState tracks one in-flight reconstruction.
type retrievalState struct {
	cfg      Config
	deadline time.Duration
	got      map[int]StoredFragment
	done     bool
	cb       func(data []byte, err error, latency time.Duration)
	started  time.Duration
}
