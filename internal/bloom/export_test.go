package bloom

import (
	"math"
	"math/bits"
)

// Filter diagnostics the tests assert on.

// Equal reports bitwise equality.
func (f *Filter) Equal(other *Filter) bool {
	if f.m != other.m || f.k != other.k {
		return false
	}
	for i := range f.bits {
		if f.bits[i] != other.bits[i] {
			return false
		}
	}
	return true
}

// FillRatio returns the fraction of set bits, a saturation diagnostic.
func (f *Filter) FillRatio() float64 {
	ones := 0
	for _, w := range f.bits {
		ones += bits.OnesCount64(w)
	}
	return float64(ones) / float64(f.m)
}

// FalsePositiveRate estimates the theoretical FP rate after n inserts:
// (1 - e^{-kn/m})^k.
func (f *Filter) FalsePositiveRate(n int) float64 {
	return math.Pow(1-math.Exp(-float64(f.k)*float64(n)/float64(f.m)), float64(f.k))
}
