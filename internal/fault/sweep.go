package fault

import "oceanstore/internal/par"

// Combo is one cell of a plan × seed sweep.
type Combo struct {
	Plan Plan
	Seed int64
}

// Combos expands plans × seeds in plan-major, seed-minor order — the
// canonical sweep order every driver (tests, benchmarks, osexp) uses,
// so results and failure names line up across them.
func Combos(plans []Plan, seeds []int64) []Combo {
	out := make([]Combo, 0, len(plans)*len(seeds))
	for _, p := range plans {
		for _, s := range seeds {
			out = append(out, Combo{Plan: p, Seed: s})
		}
	}
	return out
}

// Sweep runs fn over every plan × seed combination on the fork-join
// pool, one simulator kernel per worker, and returns results in
// Combos order.  Each combination must be self-contained (build its
// own kernel and pool); the deterministic merge order means a sweep's
// aggregate output is byte-identical at any GOMAXPROCS, and scales
// with cores instead of minutes.
func Sweep[T any](plans []Plan, seeds []int64, fn func(Plan, int64) T) []T {
	combos := Combos(plans, seeds)
	return par.Map(len(combos), func(i int) T { return fn(combos[i].Plan, combos[i].Seed) })
}
