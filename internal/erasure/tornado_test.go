package erasure

import (
	"errors"
	"fmt"
	"math/rand"
)

// Tornado is a Tornado-style XOR erasure code: fragments 0..n-1 are the
// data shards, and fragments n..f-1 are check shards, each the XOR of a
// small pseudo-random subset of data shards drawn from a soliton-like
// degree distribution.  Decoding peels: any check whose neighbours are
// all but one known resolves the unknown one.
//
// The code is not MDS — on unlucky fragment subsets it needs slightly
// more than n fragments, matching the paper's §4.5 footnote 12 — but
// encode and decode are XOR-only and run in near-linear time, which is
// why the paper pairs it with Reed-Solomon.  The archive always codes
// with Reed-Solomon, so this code lives beside the tests that check it
// and BenchmarkCodecAblation, which compares it.
type Tornado struct {
	n, f int
	// neighbours[j] lists the data shards XORed into check j (0-based
	// check index); derived deterministically from the code seed so the
	// decoder can reconstruct the graph from fragment indexes alone.
	neighbours [][]int
}

// NewTornado builds an (n, f) peeling code whose check graph derives
// from seed.  Encoder and decoder must use the same geometry and seed.
func NewTornado(n, f int, seed int64) (*Tornado, error) {
	if n < 1 || f <= n {
		return nil, fmt.Errorf("erasure: invalid geometry n=%d f=%d", n, f)
	}
	t := &Tornado{n: n, f: f, neighbours: make([][]int, f-n)}
	rng := rand.New(rand.NewSource(seed))
	for j := range t.neighbours {
		d := t.degree(rng)
		// Sample d distinct data shards.  Always include shard j mod n so
		// the checks collectively cover every shard evenly — a cheap
		// structured guarantee that keeps the peeling process from
		// stalling on uncovered shards (the practical analogue of
		// Tornado's carefully designed irregular graphs).
		set := make(map[int]bool, d)
		set[j%n] = true
		for len(set) < d {
			set[rng.Intn(n)] = true
		}
		nb := make([]int, 0, d)
		for s := range set {
			nb = append(nb, s)
		}
		// Sort for determinism independent of map iteration.
		for i := 1; i < len(nb); i++ {
			for k := i; k > 0 && nb[k] < nb[k-1]; k-- {
				nb[k], nb[k-1] = nb[k-1], nb[k]
			}
		}
		t.neighbours[j] = nb
	}
	return t, nil
}

// degree samples a check degree from a truncated ideal-soliton-like
// distribution: mostly small degrees with a spike at 1 and 2, capped so
// checks stay cheap.  Degree-1 checks seed the peeling process.
func (t *Tornado) degree(rng *rand.Rand) int {
	u := rng.Float64()
	var d int
	switch {
	case u < 0.25:
		d = 2
	case u < 0.50:
		d = 3
	case u < 0.70:
		d = 4
	case u < 0.85:
		d = 5 + rng.Intn(4)
	default:
		// High-degree checks keep every shard covered when many data
		// shards are missing (the robust-soliton tail); they are cheap to
		// use because stalled decodes fall back to inactivation.
		d = t.n/2 + rng.Intn(t.n/2+1)
	}
	if d > t.n {
		d = t.n
	}
	if d < 1 {
		d = 1
	}
	return d
}

// Total returns f.
func (t *Tornado) Total() int { return t.f }

// Required returns n — the information-theoretic minimum.  Peeling may
// need a few extra fragments on unlucky subsets; callers should request
// Total-Required extras as insurance (exactly what §5 reports helped).
func (t *Tornado) Required() int { return t.n }

func (t *Tornado) shardLen(dataLen int) int { return (dataLen + t.n - 1) / t.n }

// Encode produces n systematic data fragments plus f-n XOR checks.
func (t *Tornado) Encode(data []byte) ([]Fragment, error) {
	if len(data) == 0 {
		return nil, errors.New("erasure: empty data")
	}
	l := t.shardLen(len(data))
	out := make([]Fragment, t.f)
	shards := make([][]byte, t.n)
	for i := 0; i < t.n; i++ {
		buf := make([]byte, l)
		lo := i * l
		if lo < len(data) {
			copy(buf, data[lo:min(lo+l, len(data))])
		}
		shards[i] = buf
		out[i] = Fragment{Index: i, Data: buf}
	}
	for j, nb := range t.neighbours {
		buf := make([]byte, l)
		for _, s := range nb {
			xorSlice(buf, shards[s])
		}
		out[t.n+j] = Fragment{Index: t.n + j, Data: buf}
	}
	return out, nil
}

// Decode reconstructs via iterative peeling.  It returns
// ErrNotEnoughFragments when the peeling process stalls before all data
// shards are known — the caller should fetch more fragments and retry.
func (t *Tornado) Decode(frags []Fragment, dataLen int) ([]byte, error) {
	l := t.shardLen(dataLen)
	known := make([][]byte, t.n)
	var checks []*check
	seen := make(map[int]bool)
	for _, fr := range frags {
		if fr.Index < 0 || fr.Index >= t.f || seen[fr.Index] || len(fr.Data) != l {
			continue
		}
		seen[fr.Index] = true
		if fr.Index < t.n {
			known[fr.Index] = fr.Data
		} else {
			c := &check{buf: append([]byte(nil), fr.Data...), missing: map[int]bool{}}
			for _, s := range t.neighbours[fr.Index-t.n] {
				c.missing[s] = true
			}
			checks = append(checks, c)
		}
	}
	// Peel: substitute known shards into checks; a check with one
	// missing neighbour resolves it; repeat until fixpoint.
	for {
		progress := false
		for _, c := range checks {
			for s := range c.missing {
				if known[s] != nil {
					xorSlice(c.buf, known[s])
					delete(c.missing, s)
					progress = true
				}
			}
			if len(c.missing) == 1 {
				for s := range c.missing {
					if known[s] == nil {
						known[s] = append([]byte(nil), c.buf...)
					}
					delete(c.missing, s)
					progress = true
				}
			}
		}
		done := true
		for _, sh := range known {
			if sh == nil {
				done = false
				break
			}
		}
		if done {
			break
		}
		if !progress {
			// Peeling stalled.  Fall back to inactivation decoding:
			// Gaussian elimination over GF(2) on the remaining checks.
			// Still XOR-only; succeeds whenever the surviving equations
			// have full rank over the unknown shards.
			if !solveStalled(known, checks) {
				return nil, ErrNotEnoughFragments
			}
			break
		}
	}
	data := make([]byte, t.n*l)
	for i, sh := range known {
		copy(data[i*l:], sh)
	}
	return data[:dataLen], nil
}

// check is one XOR equation during decoding: buf holds the check value
// with all known neighbours already substituted out, and missing lists
// the still-unknown data shards it covers.
type check struct {
	buf     []byte
	missing map[int]bool
}

// solveStalled resolves the remaining unknown shards by Gaussian
// elimination over GF(2).  Each stalled check is a linear equation in
// the unknown shards; if the system has full rank, every unknown is
// recovered into known and the function returns true.
func solveStalled(known [][]byte, checks []*check) bool {
	var unknowns []int
	pos := make(map[int]int) // shard -> column
	for i, sh := range known {
		if sh == nil {
			pos[i] = len(unknowns)
			unknowns = append(unknowns, i)
		}
	}
	if len(unknowns) == 0 {
		return true
	}
	type row struct {
		cols map[int]bool // columns (unknown indexes) present
		buf  []byte
	}
	var rows []*row
	for _, c := range checks {
		if len(c.missing) == 0 {
			continue
		}
		r := &row{cols: make(map[int]bool, len(c.missing)), buf: append([]byte(nil), c.buf...)}
		for s := range c.missing {
			r.cols[pos[s]] = true
		}
		rows = append(rows, r)
	}
	// Forward elimination with partial pivoting by column.
	solvedCols := 0
	for col := 0; col < len(unknowns); col++ {
		pivot := -1
		for i := solvedCols; i < len(rows); i++ {
			if rows[i].cols[col] {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			return false // rank deficient
		}
		rows[solvedCols], rows[pivot] = rows[pivot], rows[solvedCols]
		p := rows[solvedCols]
		for i := range rows {
			if i == solvedCols || !rows[i].cols[col] {
				continue
			}
			for c := range p.cols {
				if rows[i].cols[c] {
					delete(rows[i].cols, c)
				} else {
					rows[i].cols[c] = true
				}
			}
			xorSlice(rows[i].buf, p.buf)
		}
		solvedCols++
	}
	// After full elimination each pivot row has exactly one column.
	for _, r := range rows[:solvedCols] {
		if len(r.cols) != 1 {
			return false
		}
		for col := range r.cols {
			known[unknowns[col]] = r.buf
		}
	}
	return true
}
