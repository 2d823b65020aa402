package introspect

import (
	"time"

	"oceanstore/internal/guid"
)

// PrefetchCandidates returns the objects clustered with obj — what a
// remote optimization module prefetches when obj is accessed (§4.7.2:
// cluster descriptions "help remote optimization modules collocate and
// prefetch related files").
func (c *ClusterRecognizer) PrefetchCandidates(obj guid.GUID, threshold float64) []guid.GUID {
	for _, cluster := range c.Clusters(threshold) {
		for _, m := range cluster {
			if m == obj {
				out := make([]guid.GUID, 0, len(cluster)-1)
				for _, o := range cluster {
					if o != obj {
						out = append(out, o)
					}
				}
				return out
			}
		}
	}
	return nil
}

// MigrationDetector implements §4.7.2's long-term trend analysis:
// "OceanStore can detect periodic migration of clusters from site to
// site and prefetch data based on these cycles.  Thus users will find
// their project files and email folder on a local machine during the
// work day, and waiting for them on their home machines at night."
//
// Accesses are recorded as (site, time); the detector folds time into
// a fixed period (e.g. 24 h) split into slots and learns which site
// dominates each slot.  PredictSite then says where data should be
// prefetched for any future instant.
type MigrationDetector struct {
	period time.Duration
	slots  int
	// counts[slot][site] counts the accesses from site in slot.
	counts []map[int]float64
}

// NewMigrationDetector creates a detector folding time modulo period
// into slots buckets.
func NewMigrationDetector(period time.Duration, slots int) *MigrationDetector {
	if slots < 1 {
		slots = 24
	}
	m := &MigrationDetector{period: period, slots: slots, counts: make([]map[int]float64, slots)}
	for i := range m.counts {
		m.counts[i] = make(map[int]float64)
	}
	return m
}

func (m *MigrationDetector) slot(t time.Duration) int {
	if m.period <= 0 {
		return 0
	}
	phase := t % m.period
	s := int(int64(phase) * int64(m.slots) / int64(m.period))
	if s >= m.slots {
		s = m.slots - 1
	}
	return s
}

// Observe records an access from a site at virtual time t.
func (m *MigrationDetector) Observe(site int, t time.Duration) {
	m.counts[m.slot(t)][site]++
}

// PredictSite returns the site that historically dominates the slot
// containing time t, and whether any signal exists for that slot.
func (m *MigrationDetector) PredictSite(t time.Duration) (int, bool) {
	slot := m.counts[m.slot(t)]
	best, bestC, ok := 0, 0.0, false
	for site, c := range slot {
		if !ok || c > bestC || (c == bestC && site < best) {
			best, bestC, ok = site, c, true
		}
	}
	return best, ok
}

// Confidence reports the dominant site's share of the slot's accesses
// — the §4.7.2 "continuous confidence estimation" guarding against
// harmful optimizations: callers should only migrate data when the
// confidence is high.
func (m *MigrationDetector) Confidence(t time.Duration) float64 {
	slot := m.counts[m.slot(t)]
	total, best := 0.0, 0.0
	for _, c := range slot {
		total += c
		if c > best {
			best = c
		}
	}
	if total == 0 {
		return 0
	}
	return best / total
}
