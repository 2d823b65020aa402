package object

import (
	"fmt"

	"oceanstore/internal/guid"
)

// History is the active form of an object: its version chain with the
// latest version as the handle for update (paper §2).  In principle
// every update creates a new version; interfaces for retiring old
// versions follow the Elephant file system the paper cites [44].
// Retiring a version only trims the *active* replica — the deep
// archival fragments of retired versions persist in the infrastructure.
type History struct {
	versions []*Version // ascending by Num; always retains the latest
	byGUID   map[guid.GUID]*Version
	// bound, when >0, caps the chain: Add retires it to its newest bound
	// versions as each new version arrives, so a hot object never holds
	// more than bound versions.  0 = unbounded.
	bound int
}

// SetBound installs a bound of n versions that Add enforces on every
// new version.  0 restores unbounded growth (already-retired versions
// stay gone).
func (h *History) SetBound(n int) { h.bound = n }

// NewHistory starts a history at the initial version.
func NewHistory(v0 *Version) *History {
	h := &History{byGUID: make(map[guid.GUID]*Version)}
	h.Add(v0)
	return h
}

// Add appends a new version.  Versions must arrive in increasing order
// — commitment already serialised them.
func (h *History) Add(v *Version) {
	if n := len(h.versions); n > 0 && v.Num <= h.versions[n-1].Num {
		panic(fmt.Sprintf("object: version %d added after %d", v.Num, h.versions[n-1].Num))
	}
	h.versions = append(h.versions, v)
	h.byGUID[v.GUID()] = v
	if h.bound > 0 && len(h.versions) > h.bound {
		h.Retire(KeepLandmarks{N: h.bound})
	}
}

// ByNum finds a retained version by number.
func (h *History) ByNum(num uint64) (*Version, bool) {
	for _, v := range h.versions {
		if v.Num == num {
			return v, true
		}
	}
	return nil, false
}

// ByGUID finds a retained version by its permanent version GUID — the
// resolution step behind version-qualified permanent hyperlinks (§4.5).
func (h *History) ByGUID(g guid.GUID) (*Version, bool) {
	v, ok := h.byGUID[g]
	return v, ok
}

// KeepLandmarks is the retirement policy, Elephant-style [44]: it
// keeps every Every-th version (the landmarks of a long-lived object;
// 0 keeps none) plus the N most recent.
type KeepLandmarks struct {
	Every uint64
	N     int
}

// Retire drops versions the policy does not keep.  The latest version
// is always retained regardless of policy.  It returns how many
// versions were dropped.  The survivors are compacted to the front of
// the chain and the slots behind them cleared, so a dropped version is
// unreachable from the history whichever versions the policy kept.
func (h *History) Retire(p KeepLandmarks) int {
	kept := h.versions[:0]
	recent := len(h.versions) - max(p.N, 1)
	for i, v := range h.versions {
		if i >= recent || p.Every > 0 && v.Num%p.Every == 0 {
			kept = append(kept, v)
		} else {
			delete(h.byGUID, v.GUID())
		}
	}
	dropped := len(h.versions) - len(kept)
	clear(h.versions[len(kept):])
	h.versions = kept
	return dropped
}
