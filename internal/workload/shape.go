package workload

import "time"

// Shape bends the engine's steady-state traffic into the time-varying
// patterns the introspection layer must react to (§4.7.2): diurnal
// intensity swings and flash crowds.  Every component is a pure
// function of virtual time — the same instant in two runs sees the
// same schedule — and a zero Shape draws no extra randomness, so
// unshaped configurations reproduce byte-identically.
type Shape struct {
	// DiurnalPeriod is the day length; 0 disables diurnal modulation.
	// The first half of every period is "day" (full arrival
	// intensity); the second half is "night", where think/arrival
	// means are stretched by 1/nightRate.
	DiurnalPeriod time.Duration

	// FlashFor, when positive, arms a flash crowd: during
	// [FlashAt, FlashAt+FlashFor) a FlashMass fraction of object draws
	// is redirected onto the hot set of the first FlashObjects objects
	// — a step function concentrating Zipf mass onto a few objects,
	// then releasing it.
	FlashAt   time.Duration
	FlashFor  time.Duration
	FlashMass float64
	// FlashObjects sizes the hot set (default 1).
	FlashObjects int
}

// nightRate is the night-time arrival intensity relative to day.
const nightRate = 0.25

// RateAt reports the arrival-intensity multiplier at virtual time t:
// 1 during the day, nightRate at night, always 1 with the modulation
// off.  Exact in virtual time — the step lands precisely halfway
// through each period.
func (s Shape) RateAt(t time.Duration) float64 {
	if s.DiurnalPeriod <= 0 {
		return 1
	}
	if 2*(t%s.DiurnalPeriod) < s.DiurnalPeriod {
		return 1
	}
	return nightRate
}

// FlashActive reports whether the flash crowd is in force at t.
func (s Shape) FlashActive(t time.Duration) bool {
	return s.FlashFor > 0 && t >= s.FlashAt && t < s.FlashAt+s.FlashFor
}

// MapObject applies the flash step to a Zipf-drawn base index, given the flash coin u (only consulted while the flash is
// active; callers must draw it exactly then, so inactive shapes
// perturb no RNG stream).  A redirected draw lands on base modulo the
// hot-set size: base itself when the hot set is larger than the
// universe base was drawn from.
func (s Shape) MapObject(base int, t time.Duration, u float64) int {
	if s.FlashActive(t) && u < s.FlashMass {
		return base % max(s.FlashObjects, 1)
	}
	return base
}

// NeedsFlashCoin reports whether a draw at time t must consume one
// uniform variate for the flash redirect decision.
func (s Shape) NeedsFlashCoin(t time.Duration) bool {
	return s.FlashActive(t) && s.FlashMass > 0
}
