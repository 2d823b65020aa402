// Package archive implements OceanStore's deep archival storage (paper
// §4.5): objects are erasure-coded into fragments, each fragment made
// self-verifying with a hierarchical hash (package merkle), and the
// fragments dispersed across administrative domains so that no
// correlated failure can destroy the data.  Fragment generation is
// coupled to the commit process — the primary tier encodes and
// disseminates fragments as a side effect of serialising updates — and
// background sweeps repair archives whose live redundancy decays.
package archive

import (
	"math"
	"math/rand"

	"oceanstore/internal/par"
)

// Availability evaluates the paper's §4.5 reliability formula: the
// probability that a document is retrievable when each of its f
// fragments sits on a machine that is independently down with
// probability pDown, and up to rf missing fragments are tolerated:
//
//	P = Σ_{i=0}^{rf} C(f, i) · pDown^i · (1-pDown)^(f-i)
func Availability(f, rf int, pDown float64) float64 {
	if f <= 0 || rf < 0 {
		return 0
	}
	if rf >= f {
		return 1
	}
	p := 0.0
	for i := 0; i <= rf; i++ {
		p += binomPMF(f, i, pDown)
	}
	if p > 1 {
		p = 1
	}
	return p
}

// binomPMF computes C(n,k) p^k (1-p)^(n-k) in log space for stability.
func binomPMF(n, k int, p float64) float64 {
	if p == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := lchoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lg)
}

func lchoose(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// ReplicationAvailability is the baseline the paper compares against:
// whole-object replication with `copies` copies survives unless every
// copy is down.
func ReplicationAvailability(copies int, pDown float64) float64 {
	return 1 - math.Pow(pDown, float64(copies))
}

// AvailabilityMonteCarlo estimates the same quantity by simulation:
// each trial knocks out machines independently and asks whether at
// least f-rf fragments survive.  Used to validate the closed form.
//
// Trials run on the fork-join pool in fixed-size blocks, each with a
// sub-stream seeded serially from rng — block boundaries and seeds
// depend only on (trials, rng), so the estimate is a pure function of
// the caller's seed at any GOMAXPROCS.
func AvailabilityMonteCarlo(f, rf int, pDown float64, trials int, rng *rand.Rand) float64 {
	if trials <= 0 {
		return 0
	}
	const block = 8192
	blocks := (trials + block - 1) / block
	seeds := make([]int64, blocks)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	counts := par.Map(blocks, func(b int) int {
		n := block
		if b == blocks-1 {
			n = trials - b*block
		}
		r := rand.New(rand.NewSource(seeds[b]))
		ok := 0
		for t := 0; t < n; t++ {
			down := 0
			for i := 0; i < f; i++ {
				if r.Float64() < pDown {
					down++
				}
			}
			if down <= rf {
				ok++
			}
		}
		return ok
	})
	ok := 0
	for _, c := range counts {
		ok += c
	}
	return float64(ok) / float64(trials)
}

// Nines converts an availability probability into "number of nines"
// (0.99 → 2, 0.999994 → 5.2), the unit the paper reports.
func Nines(p float64) float64 {
	if p >= 1 {
		return math.Inf(1)
	}
	return -math.Log10(1 - p)
}
