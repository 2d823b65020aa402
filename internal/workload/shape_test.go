package workload

import (
	"reflect"
	"testing"
	"time"

	"oceanstore/internal/obs"
	"oceanstore/internal/sim"
)

// TestShapeRateAtExact: the diurnal step lands precisely halfway
// through each period, in virtual time.
func TestShapeRateAtExact(t *testing.T) {
	s := Shape{DiurnalPeriod: time.Hour}
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 1},
		{30*time.Minute - time.Nanosecond, 1},
		{30 * time.Minute, nightRate},
		{time.Hour - time.Nanosecond, nightRate},
		{time.Hour, 1},
		{time.Hour + 29*time.Minute, 1},
		{2*time.Hour + 45*time.Minute, nightRate},
	}
	for _, c := range cases {
		if got := s.RateAt(c.t); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	// An odd period's day ends at its first instant at or past half.
	odd := Shape{DiurnalPeriod: 3}
	for at, want := range []float64{1, 1, nightRate} {
		if got := odd.RateAt(time.Duration(at)); got != want {
			t.Errorf("period 3ns: RateAt(%dns) = %v, want %v", at, got, want)
		}
	}
	var zero Shape
	if zero.RateAt(37*time.Minute) != 1 {
		t.Error("zero Shape must not modulate rate")
	}
}

// TestShapeFlashWindow: the flash is a half-open step in virtual time.
func TestShapeFlashWindow(t *testing.T) {
	s := Shape{FlashAt: time.Minute, FlashFor: 30 * time.Second, FlashMass: 0.9}
	for _, at := range []time.Duration{0, time.Minute - time.Nanosecond, 90 * time.Second} {
		if s.FlashActive(at) {
			t.Errorf("flash active at %v, want inactive", at)
		}
		if s.NeedsFlashCoin(at) {
			t.Errorf("coin consumed at %v outside the flash", at)
		}
	}
	for _, at := range []time.Duration{time.Minute, 90*time.Second - time.Nanosecond} {
		if !s.FlashActive(at) {
			t.Errorf("flash inactive at %v, want active", at)
		}
		if !s.NeedsFlashCoin(at) {
			t.Errorf("no coin at %v inside the flash", at)
		}
	}
	// Zero mass never needs the coin even while active.
	nm := Shape{FlashAt: 0, FlashFor: time.Minute}
	if nm.NeedsFlashCoin(time.Second) {
		t.Error("zero-mass flash must not consume randomness")
	}
}

// TestShapeFlashSetClamped: a redirected draw lands in the hot set,
// which clamps into the universe the draw came from.
func TestShapeFlashSetClamped(t *testing.T) {
	cases := []struct {
		objects    int
		base, want int
	}{
		{4, 2, 2},
		{4, 7, 3},
		{4, 99, 3},
		{200, 57, 57}, // a hot set past the universe leaves every draw in place
		{0, 57, 0},    // the default hot set is object 0
	}
	for i, c := range cases {
		s := Shape{FlashFor: time.Minute, FlashMass: 1, FlashObjects: c.objects}
		if got := s.MapObject(c.base, time.Second, 0); got != c.want {
			t.Errorf("case %d: %d hot objects mapped %d -> %d, want %d", i, c.objects, c.base, got, c.want)
		}
	}
}

// TestShapeMapObject: flash redirects under the coin, and the zero
// Shape is the identity.
func TestShapeMapObject(t *testing.T) {
	var zero Shape
	if got := zero.MapObject(7, time.Hour, 0); got != 7 {
		t.Errorf("zero Shape mapped 7 -> %d", got)
	}
	fl := Shape{FlashAt: 0, FlashFor: time.Minute, FlashMass: 0.5, FlashObjects: 2}
	if got := fl.MapObject(7, time.Second, 0.4); got != 1 {
		t.Errorf("flash redirect mapped 7 -> %d, want 1 (7 mod 2)", got)
	}
	if got := fl.MapObject(7, time.Second, 0.6); got != 7 {
		t.Errorf("coin above mass must not redirect: 7 -> %d", got)
	}
	if got := fl.MapObject(7, 2*time.Minute, 0); got != 7 {
		t.Errorf("flash over: 7 -> %d, want 7", got)
	}
}

// TestEngineZeroShapeIdentical: attaching a zero Shape changes nothing —
// same request trace, same stats — so every legacy configuration
// reproduces byte for byte.
func TestEngineZeroShapeIdentical(t *testing.T) {
	ft1 := &fakeTarget{delay: 30 * time.Millisecond}
	_, st1 := runEngine(t, 11, baseConfig(), ft1)
	cfg := baseConfig()
	cfg.Shape = Shape{} // explicit zero
	ft2 := &fakeTarget{delay: 30 * time.Millisecond}
	_, st2 := runEngine(t, 11, cfg, ft2)
	if st1 != st2 {
		t.Fatalf("zero Shape changed stats:\n%+v\n%+v", st1, st2)
	}
	if ft1.trace() != ft2.trace() {
		t.Fatal("zero Shape changed the request trace")
	}
}

// runTapped drives an engine with a tap that reports each resolved
// request and the virtual time it was ISSUED (completion time minus
// latency), for classifying ops against the shape's schedule.
func runTapped(t *testing.T, seed int64, cfg EngineConfig, ft *fakeTarget, tap func(req Request, issuedAt time.Duration)) *Engine {
	t.Helper()
	k := sim.NewKernel(seed)
	ft.k = k
	e := NewEngine(k, cfg, ft)
	e.Tap(func(req Request, lat time.Duration, ok bool) {
		tap(req, k.Now()-lat)
	})
	e.Start()
	k.RunWhile(func() bool { return !e.Done() })
	if !e.Done() {
		t.Fatalf("engine never drained: %+v", e.Stats())
	}
	return e
}

// TestEngineDiurnalThinsArrivals: with a diurnal shape, ops issued
// during the night phase fall well below the day count over equal
// spans.
func TestEngineDiurnalThinsArrivals(t *testing.T) {
	cfg := baseConfig()
	cfg.Ops = 4000
	cfg.Mix = Mix{} // reads only: completions are prompt
	cfg.MeanThink = 50 * time.Millisecond
	cfg.Shape = Shape{DiurnalPeriod: 20 * time.Second}
	ft := &fakeTarget{delay: time.Millisecond}
	day, night := 0, 0
	runTapped(t, 3, cfg, ft, func(_ Request, at time.Duration) {
		if cfg.Shape.RateAt(at) == 1 {
			day++
		} else {
			night++
		}
	})
	if day == 0 || night == 0 {
		t.Fatalf("want issues in both phases, got day %d night %d", day, night)
	}
	// Equal day/night spans at quarter intensity: the night count
	// should sit well under half the day count (exponential noise
	// keeps the exact ratio loose).
	if float64(night) > 0.6*float64(day) {
		t.Fatalf("night arrivals not thinned: day %d, night %d", day, night)
	}
}

// TestEngineFlashConcentrates: during the flash window, at least the
// configured mass of draws lands in the hot set — and the window
// boundaries are exact in virtual time.
func TestEngineFlashConcentrates(t *testing.T) {
	cfg := baseConfig()
	cfg.Ops = 4000
	cfg.Mix = Mix{} // reads only, universe fixed
	cfg.MeanThink = 20 * time.Millisecond
	cfg.Shape = Shape{
		FlashAt:      10 * time.Second,
		FlashFor:     time.Minute,
		FlashMass:    0.9,
		FlashObjects: 2,
	}
	ft := &fakeTarget{delay: time.Millisecond}
	inFlash, hot, outHot, outside := 0, 0, 0, 0
	runTapped(t, 9, cfg, ft, func(req Request, at time.Duration) {
		isHot := req.Object < 2
		if cfg.Shape.FlashActive(at) {
			inFlash++
			if isHot {
				hot++
			}
			return
		}
		outside++
		if isHot {
			outHot++
		}
	})
	if inFlash < 500 || outside < 500 {
		t.Fatalf("want draws on both sides of the window, got %d in / %d out", inFlash, outside)
	}
	if frac := float64(hot) / float64(inFlash); frac < 0.85 {
		t.Fatalf("flash concentration %.2f, want >= 0.85 (hot %d of %d)", frac, hot, inFlash)
	}
	if frac := float64(outHot) / float64(outside); frac > 0.5 {
		t.Fatalf("hot pair dominates outside the flash too (%.2f) — window leaked", frac)
	}
}

// TestEngineTapInert: attaching a tap changes neither the stats, the
// request trace, nor the latency histogram — and Latency() still
// merges into an instrumented registry identically.
func TestEngineTapInert(t *testing.T) {
	cfg := baseConfig()
	ft1 := &fakeTarget{delay: 30 * time.Millisecond}
	e1, st1 := runEngine(t, 21, cfg, ft1)

	k := sim.NewKernel(21)
	ft2 := &fakeTarget{k: k, delay: 30 * time.Millisecond}
	e2 := NewEngine(k, cfg, ft2)
	taps := 0
	e2.Tap(func(req Request, lat time.Duration, ok bool) { taps++ })
	e2.Start()
	k.RunWhile(func() bool { return !e2.Done() })

	if st1 != e2.Stats() {
		t.Fatalf("tap changed stats:\n%+v\n%+v", st1, e2.Stats())
	}
	if ft1.trace() != ft2.trace() {
		t.Fatal("tap changed the request trace")
	}
	if taps == 0 {
		t.Fatal("tap never fired")
	}
	l1, l2 := e1.Latency(), e2.Latency()
	if *l1 != *l2 {
		t.Fatalf("tap changed the latency histogram: count %d mean %d vs count %d mean %d",
			l1.Count(), l1.Mean(), l2.Count(), l2.Mean())
	}
	// Read latencies are the read-only slice of the op stream.
	if rc := e2.ReadLatency().Count(); rc == 0 || rc >= l2.Count() {
		t.Fatalf("read latency count %d should be a strict nonempty subset of %d", rc, l2.Count())
	}
	// Instrumenting after the fact reads the same totals: the dumped
	// histograms are the engine's.
	reg := obs.NewRegistry()
	e2.Instrument(reg)
	if got := reg.CounterValue(obs.NodeWide, "workload", "issued"); got != int64(e2.Stats().Issued) {
		t.Fatalf("instrumented issued %d, want %d", got, e2.Stats().Issued)
	}
	for name, h := range map[string]*obs.Histogram{"op_latency_ns": l2, "read_latency_ns": e2.ReadLatency()} {
		if got, want := histSeries(t, reg, "workload", name), dumpedAs(t, "workload", name, h); !reflect.DeepEqual(got, want) {
			t.Fatalf("dumped %s (count %d, %+v) is not the engine's (count %d, %+v)",
				name, got.Count, *got.Hist, want.Count, *want.Hist)
		}
	}
}

// histSeries is the node-wide histogram (layer, name) as reg dumps it,
// read through Snapshot, which creates no series.
func histSeries(t *testing.T, reg *obs.Registry, layer, name string) obs.Metric {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Kind == "hist" && m.Key == (obs.Key{Layer: layer, Name: name}) {
			return m
		}
	}
	t.Fatalf("the dump has no %s/%s histogram", layer, name)
	return obs.Metric{}
}

// dumpedAs is h as a registry holding nothing else dumps it.
func dumpedAs(t *testing.T, layer, name string, h *obs.Histogram) obs.Metric {
	t.Helper()
	reg := obs.NewRegistry()
	reg.HistogramSource(layer, name, h)
	return histSeries(t, reg, layer, name)
}
