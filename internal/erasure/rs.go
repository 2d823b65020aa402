package erasure

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Fragment is one erasure-coded shard of an object.  Index identifies
// the fragment's row in the code, which the decoder needs to know which
// equations it holds.
type Fragment struct {
	Index int
	Data  []byte
}

// ErrNotEnoughFragments is returned when Decode is given too few
// distinct, well-formed fragments.
var ErrNotEnoughFragments = errors.New("erasure: not enough fragments to reconstruct")

// ReedSolomon is a systematic RS code: fragments 0..n-1 are the data
// shards verbatim and fragments n..f-1 are parity.  Any n of the f
// fragments reconstruct the original (the MDS property the paper's
// reliability formula assumes).
//
// A codec is safe for concurrent use: the encoding matrix is immutable
// after construction, the shard scratch pool is a sync.Pool, and the
// decode-matrix cache takes its own lock.
type ReedSolomon struct {
	n, f int
	enc  matrix // f×n systematic encoding matrix; top n rows = identity

	// scratch pools the shard workspace (n·l bytes) Encode splits its
	// input into, so repeated archival encodes stop paying one large
	// allocation + GC scan each.
	scratch sync.Pool

	// inv caches inverted decode sub-matrices keyed by the (sorted)
	// fragment-index set, so a repair storm that regenerates many
	// objects after the same node failure runs Gauss-Jordan once, not
	// once per object.
	invMu sync.Mutex
	inv   invCache
}

// NewReedSolomon builds an (n, f) code: n data shards, f total
// fragments.  Constraints follow GF(2^8): f ≤ 256.
func NewReedSolomon(n, f int) (*ReedSolomon, error) {
	if n < 1 || f <= n {
		return nil, fmt.Errorf("erasure: invalid geometry n=%d f=%d", n, f)
	}
	if f > 256 {
		return nil, fmt.Errorf("erasure: f=%d exceeds GF(2^8) limit of 256", f)
	}
	// Systematize a Vandermonde matrix: multiply by the inverse of its
	// top n×n block so the first n rows become the identity.  The
	// resulting matrix keeps the any-n-rows-invertible property.
	v := vandermonde(f, n)
	top := newMatrix(n, n)
	for r := 0; r < n; r++ {
		copy(top.row(r), v.row(r))
	}
	inv, ok := top.invert()
	if !ok {
		return nil, errors.New("erasure: vandermonde top block singular")
	}
	rs := &ReedSolomon{n: n, f: f, enc: v.mul(inv)}
	rs.inv.init(invCacheCap)
	// The encoder's copy fast path and the decoder's cached unit rows
	// both lean on exact systematization; field arithmetic guarantees
	// it, so a failure here is a bug in the matrix code, not bad input.
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if rs.enc.at(r, c) != want {
				panic("erasure: systematization failed to produce identity block")
			}
		}
	}
	return rs, nil
}

// shardLen returns the per-shard length for a payload of dataLen bytes.
func (rs *ReedSolomon) shardLen(dataLen int) int {
	return (dataLen + rs.n - 1) / rs.n
}

// getScratch borrows an n·l-byte shard workspace from the pool,
// growing it when the payload is larger than anything seen before.
func (rs *ReedSolomon) getScratch(size int) []byte {
	if p, ok := rs.scratch.Get().(*[]byte); ok && cap(*p) >= size {
		return (*p)[:size]
	}
	return make([]byte, size)
}

func (rs *ReedSolomon) putScratch(b []byte) {
	rs.scratch.Put(&b)
}

// Encode splits data into n zero-padded shards and produces f coded
// fragments.  The first n rows of the encoding matrix are the identity,
// so data fragments are plain copies; only the f-n parity rows run the
// GF kernel.
func (rs *ReedSolomon) Encode(data []byte) ([]Fragment, error) {
	if len(data) == 0 {
		return nil, errors.New("erasure: empty data")
	}
	l := rs.shardLen(len(data))
	backing := rs.getScratch(rs.n * l)
	shards := make([][]byte, rs.n)
	for i := range shards {
		sh := backing[i*l : (i+1)*l]
		copied := 0
		if lo := i * l; lo < len(data) {
			copied = copy(sh, data[lo:min(lo+l, len(data))])
		}
		// The pool hands back dirty memory; only the padding needs
		// zeroing, the rest was just overwritten by the copy.
		clear(sh[copied:])
		shards[i] = sh
	}
	out := make([]Fragment, rs.f)
	for r := 0; r < rs.n; r++ {
		buf := make([]byte, l)
		copy(buf, shards[r])
		out[r] = Fragment{Index: r, Data: buf}
	}
	for r := rs.n; r < rs.f; r++ {
		buf := make([]byte, l)
		row := rs.enc.row(r)
		for c := 0; c < rs.n; c++ {
			mulSlice(buf, shards[c], row[c])
		}
		out[r] = Fragment{Index: r, Data: buf}
	}
	rs.putScratch(backing)
	return out, nil
}

// Decode reconstructs dataLen bytes from any n distinct fragments.
//
// Fast paths, in order: if all n data shards are present the result is
// assembled with copies alone; otherwise surviving data shards are
// still copied and only the missing ones are solved for, using an
// inverted sub-matrix that is LRU-cached per fragment-index set.
func (rs *ReedSolomon) Decode(frags []Fragment, dataLen int) ([]byte, error) {
	l := rs.shardLen(dataLen)
	// Collect the first n distinct, well-formed fragments.
	var seen [256]bool
	rows := make([]Fragment, 0, rs.n)
	for _, fr := range frags {
		if fr.Index < 0 || fr.Index >= rs.f || seen[fr.Index] || len(fr.Data) != l {
			continue
		}
		seen[fr.Index] = true
		rows = append(rows, fr)
		if len(rows) == rs.n {
			break
		}
	}
	if len(rows) < rs.n {
		return nil, ErrNotEnoughFragments
	}
	// Canonicalise to index order.  The same fragment set yields the
	// same equations however it arrived, so this changes nothing about
	// the result — but it makes the cache key order-insensitive.
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
	data := make([]byte, rs.n*l)
	// Systematic fast path: sorted distinct indices ending below n
	// means the full data-shard set survived — reassemble by copy.
	if rows[rs.n-1].Index == rs.n-1 {
		for i, fr := range rows {
			copy(data[i*l:(i+1)*l], fr.Data)
		}
		return data[:dataLen], nil
	}
	inv := rs.invertedFor(rows)
	for shard := 0; shard < rs.n; shard++ {
		buf := data[shard*l : (shard+1)*l]
		if seen[shard] {
			// This data shard survived; exact arithmetic makes its
			// inverse row a unit vector, so skip the kernel and copy.
			i := sort.Search(len(rows), func(i int) bool { return rows[i].Index >= shard })
			copy(buf, rows[i].Data)
			continue
		}
		for i := 0; i < rs.n; i++ {
			mulSlice(buf, rows[i].Data, inv.at(shard, i))
		}
	}
	return data[:dataLen], nil
}

// invertedFor returns the inverse of the sub-matrix selecting the given
// (index-sorted) rows, consulting the LRU cache first.  The lookup, the
// inversion on a miss and the insert all run under invMu, so N
// concurrent decodes of one fragment set are exactly 1 miss and N-1
// hits at any GOMAXPROCS.  Inverting an n×n matrix is small next to
// the decode it serves, so holding the lock through it costs little
// even when a seed sweep's simulators share one codec.
//
// Any n rows of an MDS code's encoding matrix are invertible, so a
// singular pick is a bug in the matrix code, not bad input.
func (rs *ReedSolomon) invertedFor(rows []Fragment) matrix {
	var kbuf [256]byte
	for i, fr := range rows {
		kbuf[i] = byte(fr.Index)
	}
	key := kbuf[:len(rows)]
	rs.invMu.Lock()
	defer rs.invMu.Unlock()
	if inv, ok := rs.inv.get(key); ok {
		return inv
	}
	sub := newMatrix(rs.n, rs.n)
	for i, fr := range rows {
		copy(sub.row(i), rs.enc.row(fr.Index))
	}
	inv, ok := sub.invert()
	if !ok {
		panic("erasure: fragment sub-matrix singular")
	}
	rs.inv.put(key, inv)
	return inv
}

// invCacheCap bounds the decode-matrix cache.  A repair storm after a
// handful of correlated failures concentrates on few index sets; 32
// n×n matrices is small (at n=32, 32 KiB) yet covers them all.
const invCacheCap = 32

// invCache is a tiny intrusive-list LRU from fragment-index set to
// inverted sub-matrix.  Callers hold rs.invMu for every method.
type invCache struct {
	cap          int
	m            map[string]*invEntry
	head, tail   *invEntry // head = most recent, tail = least
	hits, misses uint64
}

type invEntry struct {
	key        string
	inv        matrix
	prev, next *invEntry
}

func (c *invCache) init(capacity int) {
	c.cap = capacity
	c.m = make(map[string]*invEntry, capacity)
}

// get looks the key up, counting a hit (and refreshing the entry) or a
// miss.
func (c *invCache) get(key []byte) (matrix, bool) {
	if e, ok := c.m[string(key)]; ok { // no allocation: map lookup special case
		c.hits++
		c.moveToFront(e)
		return e.inv, true
	}
	c.misses++
	return matrix{}, false
}

// put inserts a freshly inverted matrix, evicting the least recently
// used entry when the cache is full.
func (c *invCache) put(key []byte, inv matrix) {
	if len(c.m) >= c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
	}
	e := &invEntry{key: string(key), inv: inv}
	c.m[e.key] = e
	c.pushFront(e)
}

func (c *invCache) moveToFront(e *invEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *invCache) pushFront(e *invEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *invCache) unlink(e *invEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
