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
	// branches holds conflict branches keyed by the parent version they
	// diverged from (Lotus Notes-style, §4.4.1).
	branches map[guid.GUID][]*Version
	// bound, when >0, caps the chain: Add retires it to KeepLast{bound}
	// as each new version arrives, so a hot object never holds more than
	// bound versions.  0 = unbounded.
	bound int
}

// SetBound installs a KeepLast{N: n} bound that Add enforces on every
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
		h.Retire(KeepLast{N: h.bound})
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

// RetirementPolicy selects which versions to keep, Elephant-style [44].
type RetirementPolicy interface {
	// Retain reports whether the version at index i of versions (sorted
	// ascending, latest last) should be kept.
	Retain(versions []*Version, i int) bool
}

// KeepAll retains every version ("in principle every version of every
// object is archived").
type KeepAll struct{}

// Retain always reports true.
func (KeepAll) Retain([]*Version, int) bool { return true }

// KeepLast retains only the N most recent versions.
type KeepLast struct{ N int }

// Retain keeps the trailing N entries.
func (p KeepLast) Retain(versions []*Version, i int) bool {
	return i >= len(versions)-p.N
}

// KeepLandmarks retains every Every-th version plus the last N — the
// "landmark" pattern for long-lived objects.
type KeepLandmarks struct {
	Every uint64
	N     int
}

// Retain keeps landmarks and the recent tail.
func (p KeepLandmarks) Retain(versions []*Version, i int) bool {
	if i >= len(versions)-p.N {
		return true
	}
	return p.Every > 0 && versions[i].Num%p.Every == 0
}

// AddBranch records a version that diverges from a retained parent —
// the Lotus Notes-style conflict handling the paper sketches (§4.4.1:
// "unresolvable conflicts result in a branch in the object's version
// stream").  Branch versions live outside the main chain; applications
// surface them to users for manual resolution.
func (h *History) AddBranch(parent guid.GUID, v *Version) bool {
	if _, ok := h.byGUID[parent]; !ok {
		return false
	}
	if h.branches == nil {
		h.branches = make(map[guid.GUID][]*Version)
	}
	h.branches[parent] = append(h.branches[parent], v)
	h.byGUID[v.GUID()] = v
	return true
}

// Branches lists the conflict branches recorded at a parent version.
func (h *History) Branches(parent guid.GUID) []*Version {
	return append([]*Version(nil), h.branches[parent]...)
}

// Retire drops versions the policy rejects.  The latest version is
// always retained regardless of policy.  It returns how many versions
// were dropped.  The survivors are compacted to the front of the chain
// and the slots behind them cleared, so a dropped version is
// unreachable from the history whichever versions the policy kept.
func (h *History) Retire(p RetirementPolicy) int {
	kept := h.versions[:0]
	for i, v := range h.versions {
		if i == len(h.versions)-1 || p.Retain(h.versions, i) {
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
