package main

import (
	"testing"

	"oceanstore/internal/obs"
)

func TestQuantileNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1) // 1..1000
	}
	for _, tc := range []struct {
		q    float64
		want int64
		ok   bool
	}{
		{0.5, 500, true},
		{0.99, 990, true},   // exactly ten samples beyond: reported
		{0.999, 999, false}, // one sample beyond: omitted
		{0, 1, true},
		{1, 1000, false},
	} {
		got, ok := quantile(s, tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("quantile(1..1000, %v) = %d, %v; want %d, %v", tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of no samples reported a value")
	}
}

// TestQuantileOmitsThinTails pins the "fewer than ten samples beyond"
// rule at its edge: p99 needs 1000 samples, p999 needs 10000.
func TestQuantileOmitsThinTails(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true},
		{19, 0.5, false}, {20, 0.5, true},
	} {
		if _, ok := quantile(make([]int64, tc.n), tc.q); ok != tc.ok {
			t.Errorf("n=%d q=%v: reported=%v, want %v", tc.n, tc.q, ok, tc.ok)
		}
	}
}

// TestQuantileBeatsHistogram is the reason the helper exists: on a
// sample straddling a power-of-two bucket edge, obs.Histogram can only
// answer with the bucket's upper bound.
func TestQuantileBeatsHistogram(t *testing.T) {
	const edge = int64(1) << 28 // 268.435456 ms in ns
	var h obs.Histogram
	s := make(latencies, 0, 2000)
	for i := int64(0); i < 2000; i++ {
		v := edge - 1000 + i // half below the edge, half in the next bucket
		s = append(s, v)
		h.Observe(v)
	}
	s.sort()
	exact, ok := quantile(s, 0.99)
	if !ok || exact != edge-1000+1979 {
		t.Fatalf("exact p99 = %d, %v; want %d", exact, ok, edge-1000+1979)
	}
	if hist := h.Quantile(0.99); hist == exact {
		t.Fatalf("obs.Histogram resolved p99 exactly (%d); the bucket edge no longer matters and this helper may go", hist)
	} else if hist < exact {
		t.Fatalf("obs.Histogram p99 %d is below the exact %d: not an upper bound", hist, exact)
	}
}
