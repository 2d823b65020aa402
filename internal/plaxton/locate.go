package plaxton

import (
	"errors"
	"fmt"
	"slices"

	"oceanstore/internal/guid"
)

// Publish deposits location pointers for object g held at node holder:
// the publish walks from the holder to each salted root, dropping a
// pointer at every hop (§4.3.3).  It returns the total hops used (the
// publish cost).
func (m *Mesh) Publish(holder int, g guid.GUID) (int, error) {
	if m.nodes[holder].Down {
		return 0, fmt.Errorf("plaxton: holder %d is down", holder)
	}
	hops := 0
	for s := uint32(0); s < m.Salts; s++ {
		res, err := m.RouteToRoot(holder, m.salted(g, s))
		if err != nil {
			return hops, err
		}
		for _, idx := range res.Path {
			m.depositPointer(idx, g, holder)
		}
		hops += res.Hops()
	}
	return hops, nil
}

// salted maps a GUID to its s-th root GUID; salt 0 is the GUID itself.
func (m *Mesh) salted(g guid.GUID, s uint32) guid.GUID {
	if s == 0 {
		return g
	}
	return g.Salted(s)
}

func (m *Mesh) depositPointer(idx int, g guid.GUID, holder int) {
	n := m.nodes[idx]
	if !slices.Contains(n.pointers[g], holder) {
		n.pointers[g] = append(n.pointers[g], holder)
	}
}

// Unpublish removes holder's pointers for g along the paths to all
// salted roots (used when a replica is dropped deliberately).
func (m *Mesh) Unpublish(holder int, g guid.GUID) {
	for s := uint32(0); s < m.Salts; s++ {
		res, err := m.RouteToRoot(holder, m.salted(g, s))
		if err != nil {
			continue
		}
		for _, idx := range res.Path {
			n := m.nodes[idx]
			ps := slices.DeleteFunc(n.pointers[g], func(h int) bool { return h == holder })
			if len(ps) == 0 {
				delete(n.pointers, g)
			} else {
				n.pointers[g] = ps
			}
		}
	}
}

// LocateResult reports a successful location.
type LocateResult struct {
	Holder   int     // node holding the replica
	Hops     int     // mesh hops climbed before the pointer hit
	Distance float64 // climb distance plus the direct leg to the holder
	Salt     uint32  // which salted root tree satisfied the query
}

// ErrNotFound is returned when no pointer (and no root record) for the
// object exists on any salted tree.
var ErrNotFound = errors.New("plaxton: object not found")

// Locate climbs from start toward g's root until it runs into a
// pointer, then routes directly to the replica (§4.3.3).  Dead holders
// are skipped.  Salted trees are tried in order, so a failed or
// corrupted root only costs one extra climb.  The returned Distance is
// the quantity the paper's locality claim bounds: proportional to the
// distance from the query source to the closest replica.
func (m *Mesh) Locate(start int, g guid.GUID) (LocateResult, error) {
	if m.nodes[start].Down {
		return LocateResult{}, fmt.Errorf("plaxton: start node %d is down", start)
	}
	var firstErr error = ErrNotFound
	for s := uint32(0); s < m.Salts; s++ {
		target := m.salted(g, s)
		cur := start
		hops := 0
		dist := 0.0
		if r, ok := m.liveHolder(cur, g); ok {
			return LocateResult{Holder: r, Hops: 0, Distance: m.dist(cur, r), Salt: s}, nil
		}
		for level := 0; level < m.levels; level++ {
			next := m.nextHop(cur, target, level)
			if next < 0 || next == cur {
				continue
			}
			dist += m.dist(cur, next)
			cur = next
			hops++
			if r, ok := m.liveHolder(cur, g); ok {
				return LocateResult{
					Holder:   r,
					Hops:     hops,
					Distance: dist + m.dist(cur, r),
					Salt:     s,
				}, nil
			}
		}
	}
	return LocateResult{}, firstErr
}

// liveHolder returns a live replica holder recorded at node idx,
// preferring the closest to idx.
func (m *Mesh) liveHolder(idx int, g guid.GUID) (int, bool) {
	best, found := -1, false
	for _, h := range m.nodes[idx].pointers[g] {
		if m.nodes[h].Down {
			continue
		}
		if !found || m.dist(idx, h) < m.dist(idx, best) {
			best, found = h, true
		}
	}
	return best, found
}

// RemoveNode marks a node down.  Routing fails over to backup links at
// once, and Locate skips the pointers that name it.
func (m *Mesh) RemoveNode(idx int) { m.nodes[idx].Down = true }
