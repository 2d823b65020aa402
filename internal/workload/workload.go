// Package workload generates the synthetic client workloads the
// experiments and benchmarks drive the system with.  The paper's
// evaluation targets (groupware with high write sharing, digital
// libraries with bulk reads, diurnal working sets that migrate between
// office and home) reduce to Zipf object popularity and a traffic
// engine (Engine) that draws a read/write/create mix against it,
// shaped by flash crowds and diurnal rates — plus
// the diurnal site trace the migration detector consumes.  Everything
// is deterministic under a seed.
package workload

import (
	"math"
	"math/rand"
	"time"
)

// Zipf samples object indexes with a Zipf(s) popularity distribution
// over n objects — the standard model for file popularity.
type Zipf struct {
	cdf []float64
	rng *rand.Rand
}

// NewZipf builds a sampler over n objects with exponent s (s=0 is
// uniform; s≈1 is classic web-like skew).
func NewZipf(n int, s float64, rng *rand.Rand) *Zipf {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i := range w {
		acc += w[i] / total
		cdf[i] = acc
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Next returns the next sampled object index.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TimedOp is one (site, time) access observation — the unit the
// migration detector consumes.
type TimedOp struct {
	Site int
	At   time.Duration
}

// Diurnal emits (site, time) access observations over days: accesses
// come from daySite during [workStart, workEnd) hours and from
// nightSite otherwise, with jitter — the input to the migration
// detector (§4.7.2).
func Diurnal(days int, perDay int, daySite, nightSite int, workStart, workEnd int, rng *rand.Rand) []TimedOp {
	var out []TimedOp
	day := 24 * time.Hour
	for d := 0; d < days; d++ {
		for i := 0; i < perDay; i++ {
			hour := rng.Intn(24)
			site := nightSite
			if hour >= workStart && hour < workEnd {
				site = daySite
			}
			at := time.Duration(d)*day + time.Duration(hour)*time.Hour +
				time.Duration(rng.Intn(60))*time.Minute
			out = append(out, TimedOp{Site: site, At: at})
		}
	}
	return out
}
