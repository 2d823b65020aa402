package erasure

import (
	"errors"
	"fmt"
)

// The archive codes with one Reed-Solomon form.  What follows exists for
// the tests and for BenchmarkCodecAblation (the §4.5 codec ablation,
// DESIGN §4): the interface the compared codes share, the Cauchy form,
// and the references the fast paths are checked against.  Tornado is in
// tornado_test.go.

// Codec is the interface the ablation's codes implement.  Encode splits
// data into Total fragments; Decode reconstructs it from any
// sufficiently large subset (exactly Required for Reed-Solomon,
// slightly more on unlucky subsets for Tornado).
type Codec interface {
	// Encode produces Total() fragments from data.
	Encode(data []byte) ([]Fragment, error)
	// Decode reconstructs the original data of length dataLen from the
	// given fragments.
	Decode(frags []Fragment, dataLen int) ([]byte, error)
	// Total is the number of fragments produced.
	Total() int
	// Required is the minimum number of fragments that can reconstruct.
	Required() int
}

// Total returns f.
func (rs *ReedSolomon) Total() int { return rs.f }

// Required returns n.
func (rs *ReedSolomon) Required() int { return rs.n }

// CacheStats reports decode-matrix cache hits and misses.
func (rs *ReedSolomon) CacheStats() (hits, misses uint64) {
	rs.invMu.Lock()
	defer rs.invMu.Unlock()
	return rs.inv.hits, rs.inv.misses
}

// NewCauchyReedSolomon builds an (n, f) systematic MDS code whose
// parity rows come from a Cauchy matrix, the construction the
// Intermemory project used for wide-scale archival durability (paper
// §6, [18]).  Cauchy matrices have the property that *every* square
// submatrix is invertible, so — unlike the raw Vandermonde form — no
// systematisation step is needed for the parity block, and any n of
// the f fragments reconstruct.
//
// Construction: rows are indexed by x_i = i (parities) and columns by
// y_j = f + j (data), all distinct in GF(2^8), giving
// C[i][j] = 1 / (x_i ^ y_j).  The encoding matrix is [I ; C].
func NewCauchyReedSolomon(n, f int) (*ReedSolomon, error) {
	if n < 1 || f <= n {
		return nil, fmt.Errorf("erasure: invalid geometry n=%d f=%d", n, f)
	}
	if f+n > 256 {
		return nil, fmt.Errorf("erasure: n+f=%d exceeds GF(2^8) distinct points", f+n)
	}
	parity := f - n
	enc := newMatrix(f, n)
	for r := 0; r < n; r++ {
		enc.set(r, r, 1) // systematic identity
	}
	for i := 0; i < parity; i++ {
		for j := 0; j < n; j++ {
			x, y := byte(i), byte(f+j)
			d := x ^ y
			if d == 0 {
				return nil, errors.New("erasure: cauchy points collide")
			}
			enc.set(n+i, j, gfInv(d))
		}
	}
	rs := &ReedSolomon{n: n, f: f, enc: enc}
	rs.inv.init(invCacheCap)
	return rs, nil
}

// mulSliceRef is the original log/exp formulation of
// dst[i] ^= c * src[i], kept as the reference the table-driven kernel
// in gf_tables.go is cross-checked against (it must agree for all
// 256×256 coefficient/byte pairs).
func mulSliceRef(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i := range dst {
			dst[i] ^= src[i]
		}
		return
	}
	logC := int(gfLog[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[logC+int(gfLog[s])]
		}
	}
}
