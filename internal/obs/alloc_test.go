package obs

import "testing"

// TestRecordZeroAlloc pins the record path: once a handle is resolved,
// counting and observing must not allocate.  Every layer's hot loop
// holds pre-resolved handles (the nil-safe *Counter/*Histogram
// pattern), so one allocation here would be paid millions of times per
// soak.
func TestRecordZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter(1, "layer", "count")
	h := reg.Histogram(1, "layer", "lat")
	c.Inc()
	h.Observe(42) // warm any lazily sized bucket state
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		h.Observe(123456)
	})
	if allocs != 0 {
		t.Fatalf("counter/histogram record allocated %.1f per op, want 0", allocs)
	}

	// Resolving an existing series through its family — what a layer
	// pays per link or per replica once it holds the family — must not
	// allocate either, below scanMax (a scan) and above it (the index).
	small, big := reg.CounterFamily("layer", "small"), reg.CounterFamily("layer", "big")
	for node := 0; node < 4*scanMax; node++ {
		big.At(node)
	}
	small.At(NodeWide)
	small.At(7)
	allocs = testing.AllocsPerRun(100, func() {
		small.At(7).Inc()
		big.At(3 * scanMax).Inc()
	})
	if allocs != 0 {
		t.Fatalf("family.At on an existing series allocated %.1f per op, want 0", allocs)
	}

	// The nil handles (uninstrumented runs) must also stay silent.
	var nc *Counter
	var nh *Histogram
	var nf *CounterFamily
	allocs = testing.AllocsPerRun(100, func() {
		nc.Inc()
		nh.Observe(1)
		nf.At(1).Inc()
	})
	if allocs != 0 {
		t.Fatalf("nil handle record allocated %.1f per op, want 0", allocs)
	}
}
