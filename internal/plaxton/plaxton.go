// Package plaxton implements OceanStore's global data-location layer
// (paper §4.3.3, Figure 3): a highly redundant variant of the Plaxton,
// Rajaraman and Richa randomized hierarchical distributed data
// structure [40], the design later known as Tapestry.
//
// Every server gets a random node-ID.  Neighbour links are organised in
// levels: the level-l links of node X point at the closest nodes (in
// underlying network distance) whose IDs match X's lowest l digits and
// who differ in digit l — one entry per hex digit value, one of which
// is always a loopback.  The links embed a random spanning tree rooted
// at every node, so a message can route to any node by resolving its ID
// one digit per hop, in O(log n) hops.
//
// Each object GUID is mapped to a *root* node — the node whose ID
// matches the GUID in the most low-order digits, found by surrogate
// routing.  Publishing a replica walks from the replica's server to the
// root, depositing a location pointer at every hop; a search climbs
// toward the root until it hits a pointer, then routes directly to the
// replica.  Two of the paper's §4.3.3 fault-tolerance additions are
// included: salted multi-root publishing and backup neighbour links.
package plaxton

import (
	"fmt"
	"math"

	"oceanstore/internal/guid"
)

// Base is the routing radix (hex digits).
const Base = 16

// backupsPerEntry is how many redundant links each routing-table entry
// keeps besides the primary (§4.3.3 "additional neighbor links").
const backupsPerEntry = 2

// entry is one routing-table slot: a primary link plus backups, sorted
// by network distance.
type entry struct {
	primary int
	backups []int
}

// Node is one server in the mesh.
type Node struct {
	ID    guid.GUID
	Index int
	Down  bool
	// table[l][d]: neighbour matching our low l digits with digit l = d.
	table [][Base]entry
	// pointers deposited by publishes routed through this node: object
	// GUID → the nodes holding a replica.
	pointers map[guid.GUID][]int
}

// Mesh is the global structure.  Distances come from the caller (the
// simulated network), so "closest neighbour" reflects IP proximity as
// in the paper.
type Mesh struct {
	nodes  []*Node
	dist   func(a, b int) float64
	levels int
	// Salts is the number of salted roots per GUID (§4.3.3); publish and
	// locate spread over all of them.
	Salts uint32
}

// RouteResult reports a mesh traversal.
type RouteResult struct {
	Path     []int   // node indexes visited, starting with the origin
	Distance float64 // accumulated network distance
}

// Hops returns the number of edges traversed.
func (r RouteResult) Hops() int { return len(r.Path) - 1 }

// New builds a mesh over n pre-assigned node IDs with the given
// distance oracle.  Tables are constructed from global knowledge —
// the steady state the paper's online insertion algorithm converges to.
func New(ids []guid.GUID, dist func(a, b int) float64) *Mesh {
	m := &Mesh{
		dist:   dist,
		levels: neededLevels(len(ids)),
		Salts:  1,
	}
	for i, id := range ids {
		m.nodes = append(m.nodes, m.newNode(id, i))
	}
	for i := range m.nodes {
		m.fillTable(i)
	}
	return m
}

// neededLevels bounds table height: routing resolves one digit per
// level and IDs are random, so log16(n)+4 levels suffice with slack.
func neededLevels(n int) int {
	if n < 2 {
		return 1
	}
	l := int(math.Ceil(math.Log(float64(n))/math.Log(Base))) + 6
	if l > guid.Digits {
		l = guid.Digits
	}
	return l
}

func (m *Mesh) newNode(id guid.GUID, idx int) *Node {
	n := &Node{ID: id, Index: idx, pointers: make(map[guid.GUID][]int)}
	n.table = make([][Base]entry, m.levels)
	for l := range n.table {
		for d := range n.table[l] {
			n.table[l][d] = entry{primary: -1}
		}
	}
	return n
}

// Node returns node i.
func (m *Mesh) Node(i int) *Node { return m.nodes[i] }

// fillTable populates node i's routing table from all other nodes.
func (m *Mesh) fillTable(i int) {
	x := m.nodes[i]
	for l := 0; l < m.levels; l++ {
		// Loopback: X itself always occupies its own digit slot.
		x.table[l][x.ID.Digit(l)] = entry{primary: i}
	}
	for j := range m.nodes {
		if j != i {
			m.offerLink(i, j)
		}
	}
}

// offerLink considers node j as a routing entry for node i at every
// level where it qualifies, keeping the closest as primary and the next
// closest as backups.
func (m *Mesh) offerLink(i, j int) {
	x, y := m.nodes[i], m.nodes[j]
	match := x.ID.MatchingDigits(y.ID)
	if match >= m.levels {
		match = m.levels - 1
	}
	for l := 0; l <= match && l < m.levels; l++ {
		d := int(y.ID.Digit(l))
		e := &x.table[l][d]
		if e.primary == i && d == int(x.ID.Digit(l)) {
			// Loopback slot: keep self as primary, use y as backup.
			insertBackup(e, j, i, m.dist)
			continue
		}
		if e.primary < 0 {
			e.primary = j
			continue
		}
		if m.dist(i, j) < m.dist(i, e.primary) {
			insertBackup(e, e.primary, i, m.dist)
			e.primary = j
		} else {
			insertBackup(e, j, i, m.dist)
		}
	}
}

// insertBackup adds candidate to e's backups, keeping the closest
// backupsPerEntry by distance from owner.
func insertBackup(e *entry, candidate, owner int, dist func(a, b int) float64) {
	for _, b := range e.backups {
		if b == candidate {
			return
		}
	}
	e.backups = append(e.backups, candidate)
	// Insertion sort by distance; truncate.
	for i := len(e.backups) - 1; i > 0; i-- {
		if dist(owner, e.backups[i]) < dist(owner, e.backups[i-1]) {
			e.backups[i], e.backups[i-1] = e.backups[i-1], e.backups[i]
		}
	}
	if len(e.backups) > backupsPerEntry {
		e.backups = e.backups[:backupsPerEntry]
	}
}

// nextHop resolves digit `level` of the target from cur.  It scans the
// level's slots starting at the wanted digit and wrapping ((d+k) mod
// Base) — Tapestry's surrogate rule — and returns the first live
// candidate.  A return of cur means cur itself occupies the chosen slot
// (loopback): the level is resolved in place.  Because the set of
// non-empty slots at a level depends only on the node's low `level`
// digits, every source scanning the same effective prefix picks the
// same digit, which is what makes the surrogate root unique.
func (m *Mesh) nextHop(cur int, target guid.GUID, level int) int {
	x := m.nodes[cur]
	want := int(target.Digit(level))
	for k := 0; k < Base; k++ {
		d := (want + k) % Base
		e := x.table[level][d]
		if e.primary >= 0 && !m.nodes[e.primary].Down {
			return e.primary
		}
		// Primary dead: fail over to a backup link (§4.3.3 redundancy).
		for _, b := range e.backups {
			if b >= 0 && !m.nodes[b].Down {
				return b
			}
		}
	}
	return -1
}

// RouteToRoot routes from start to the surrogate root of g, returning
// the path.  While no node is removed every start converges on the
// same root.
func (m *Mesh) RouteToRoot(start int, g guid.GUID) (RouteResult, error) {
	if m.nodes[start].Down {
		return RouteResult{}, fmt.Errorf("plaxton: start node %d is down", start)
	}
	res := RouteResult{Path: []int{start}}
	cur := start
	for level := 0; level < m.levels; level++ {
		next := m.nextHop(cur, g, level)
		if next < 0 || next == cur {
			continue // resolved in place; advance to the next level
		}
		res.Distance += m.dist(cur, next)
		cur = next
		res.Path = append(res.Path, cur)
	}
	return res, nil
}
