package obs

import "testing"

// TestRecordZeroAlloc pins the record path: once a handle is resolved,
// counting and observing must not allocate.  Every layer's hot loop
// holds pre-resolved handles (the nil-safe *Counter/*Histogram
// pattern), so one allocation here would be paid millions of times per
// soak.
func TestRecordZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("layer", "count")
	h := reg.Histogram("layer", "lat")
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

	// The nil handles (uninstrumented runs) must also stay silent.
	var nc *Counter
	var nh *Histogram
	allocs = testing.AllocsPerRun(100, func() {
		nc.Inc()
		nh.Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("nil handle record allocated %.1f per op, want 0", allocs)
	}
}
