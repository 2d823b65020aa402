package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is one or two outliers, not a
// tail.
const minBeyond = 10

// quantile returns the exact nearest-rank q-quantile of sorted (the
// smallest sample with at least a fraction q of the samples at or
// below it).  ok is false — and the percentile is omitted from every
// report — when fewer than minBeyond samples lie beyond it.
//
// This exists because obs.Histogram buckets by powers of two: its
// quantiles are bucket upper bounds (a 300 ms p99 prints as
// 536.870911 ms = 2^29-1 ns), which cannot resolve the few-percent
// moves a regression bound has to see.
func quantile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps 0.999*10000 from rounding up to rank 9991.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// latencies collects one op kind's virtual-time latencies (ns).
type latencies []int64

func (l latencies) sort() { sort.Slice(l, func(i, j int) bool { return l[i] < l[j] }) }

// ms reports the q-quantile of a sorted sample in milliseconds.
func (l latencies) ms(q float64) (float64, bool) {
	v, ok := quantile(l, q)
	return float64(v) / 1e6, ok
}
