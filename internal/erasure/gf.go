// Package erasure implements the erasure code behind OceanStore's deep
// archival storage (paper §4.5): a systematic Reed-Solomon code over
// GF(2^8) in the style of Plank's tutorial [39].  It turns n input
// fragments into f > n coded fragments, and it is MDS: *any* n of the
// f fragments reconstruct the data.
//
// The paper pairs it with a Tornado-style XOR peeling code in the
// spirit of Luby et al. [32], which trades that guarantee for XOR-only
// encoding and decoding and needs slightly more than n fragments (§4.5
// footnote 12).  The archive always codes with Reed-Solomon, so that
// code and a Cauchy form of Reed-Solomon live in this package's tests,
// where BenchmarkCodecAblation compares the three.
package erasure

// GF(2^8) arithmetic with the AES-friendly primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d).  Tables are built once at init.

const gfPoly = 0x11d

var (
	gfExp [512]byte // doubled so mul can skip a mod
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	initMulTable() // product tables derive from gfExp/gfLog (gf_tables.go)
}

// gfMul multiplies in GF(2^8).
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides in GF(2^8); panics on division by zero.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfPow raises a to the k-th power.
func gfPow(a byte, k int) byte {
	if k == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return gfExp[(int(gfLog[a])*k)%255]
}

// matrix is a dense GF(2^8) matrix in row-major order.
type matrix struct {
	rows, cols int
	d          []byte
}

func newMatrix(rows, cols int) matrix {
	return matrix{rows: rows, cols: cols, d: make([]byte, rows*cols)}
}

func (m matrix) at(r, c int) byte     { return m.d[r*m.cols+c] }
func (m matrix) set(r, c int, v byte) { m.d[r*m.cols+c] = v }
func (m matrix) row(r int) []byte     { return m.d[r*m.cols : (r+1)*m.cols] }

// vandermonde builds the rows×cols matrix V[r][c] = r^c, the classic
// starting point for a Reed-Solomon generator.
func vandermonde(rows, cols int) matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.set(r, c, gfPow(byte(r), c))
		}
	}
	return m
}

// invert returns the inverse of a square matrix via Gauss-Jordan, or
// false if the matrix is singular.
func (m matrix) invert() (matrix, bool) {
	if m.rows != m.cols {
		return matrix{}, false
	}
	n := m.rows
	// Augment [m | I].
	a := newMatrix(n, 2*n)
	for r := 0; r < n; r++ {
		copy(a.row(r)[:n], m.row(r))
		a.set(r, n+r, 1)
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if a.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return matrix{}, false
		}
		if pivot != col {
			pr, cr := a.row(pivot), a.row(col)
			for i := range pr {
				pr[i], cr[i] = cr[i], pr[i]
			}
		}
		// Scale pivot row to 1.
		inv := gfInv(a.at(col, col))
		row := a.row(col)
		for i := range row {
			row[i] = gfMul(row[i], inv)
		}
		// Eliminate the column from all other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			c := a.at(r, col)
			if c == 0 {
				continue
			}
			mulSlice(a.row(r), a.row(col), c)
		}
	}
	out := newMatrix(n, n)
	for r := 0; r < n; r++ {
		copy(out.row(r), a.row(r)[n:])
	}
	return out, true
}

// mul returns m × o.
func (m matrix) mul(o matrix) matrix {
	if m.cols != o.rows {
		panic("erasure: matrix dimension mismatch")
	}
	out := newMatrix(m.rows, o.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			c := m.at(r, k)
			if c == 0 {
				continue
			}
			mulSlice(out.row(r), o.row(k), c)
		}
	}
	return out
}
