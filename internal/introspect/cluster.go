package introspect

import (
	"sort"

	"oceanstore/internal/guid"
)

// Cluster recognition (§4.7.2): an event handler triggered on each data
// access incrementally maintains a *semantic distance* graph [28] —
// objects accessed close together in time grow strong edges — and a
// periodic clustering pass extracts groups of strongly related objects.
// The resulting cluster descriptions are published so remote
// optimization modules can collocate and prefetch related files.

// ClusterRecognizer accumulates the semantic-distance graph.
type ClusterRecognizer struct {
	// window is how many recent accesses count as "close".
	window int
	recent []guid.GUID
	// weight[a][b] counts co-occurrences within the window (a < b).
	weight map[guid.GUID]map[guid.GUID]float64
}

// NewClusterRecognizer creates a recognizer with the given co-access
// window (the semantic-distance horizon).
func NewClusterRecognizer(window int) *ClusterRecognizer {
	if window < 1 {
		window = 8
	}
	return &ClusterRecognizer{
		window: window,
		weight: make(map[guid.GUID]map[guid.GUID]float64),
	}
}

// Access records one object access — the per-access event handler,
// "only a few operations per access".
func (c *ClusterRecognizer) Access(obj guid.GUID) {
	for _, prev := range c.recent {
		if prev == obj {
			continue
		}
		a, b := obj, prev
		if b.Compare(a) < 0 {
			a, b = b, a
		}
		m := c.weight[a]
		if m == nil {
			m = make(map[guid.GUID]float64)
			c.weight[a] = m
		}
		m[b]++
	}
	c.recent = append(c.recent, obj)
	if len(c.recent) > c.window {
		c.recent = c.recent[1:]
	}
}

// Clusters runs the periodic clustering pass: connected components of
// the graph restricted to edges with weight >= threshold.  Components
// are returned largest first; singletons are omitted.
func (c *ClusterRecognizer) Clusters(threshold float64) [][]guid.GUID {
	parent := make(map[guid.GUID]guid.GUID)
	var find func(g guid.GUID) guid.GUID
	find = func(g guid.GUID) guid.GUID {
		p, ok := parent[g]
		if !ok || p == g {
			parent[g] = g
			return g
		}
		r := find(p)
		parent[g] = r
		return r
	}
	union := func(a, b guid.GUID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for a, m := range c.weight {
		for b, w := range m {
			if w >= threshold {
				union(a, b)
			}
		}
	}
	groups := make(map[guid.GUID][]guid.GUID)
	for g := range parent {
		r := find(g)
		groups[r] = append(groups[r], g)
	}
	var out [][]guid.GUID
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		sort.Slice(members, func(i, j int) bool { return members[i].Compare(members[j]) < 0 })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0].Compare(out[j][0]) < 0
	})
	return out
}
