package bloom

import (
	"math/rand"
	"sync"

	"oceanstore/internal/guid"
)

// Locator runs the probabilistic location algorithm over an arbitrary
// node graph.  Each node stores a set of object GUIDs and, per outgoing
// edge, an attenuated Bloom filter built by D rounds of neighbour
// exchange — exactly the information a real deployment would gossip.
type Locator struct {
	depth, mBits, k int
	adj             [][]int               // adjacency list
	local           []map[guid.GUID]bool  // objects held per node
	localFilter     []*Filter             // Bloom of local objects
	edge            []map[int]*Attenuated // edge[u][v] = filter for u->v
	// penalty[u][v] is the local "reliability factor" of §4.3.2: nodes
	// that have abused the protocol are made to look farther away, so
	// queries automatically route around certain classes of attacks.
	penalty []map[int]int
	// scratch[v] is a reusable per-node filter for Rebuild: layer i of
	// edge u->v depends only on v, so one union per node per round
	// serves every edge into v.  Allocated once, cleared word-wise each
	// round — Rebuild itself allocates nothing.  rebuildMu serialises
	// Rebuild calls: the scratch bank is shared mutable state, and two
	// overlapping rebuilds would interleave their rounds.
	rebuildMu sync.Mutex
	scratch   []*Filter
}

// NewLocator builds a locator over the adjacency list adj (node u's
// neighbours are adj[u]; edges should be symmetric for the algorithm to
// make sense, but the structure is directed as in the paper).
func NewLocator(adj [][]int, depth, mBits, k int) *Locator {
	n := len(adj)
	l := &Locator{
		depth: depth, mBits: mBits, k: k,
		adj:         adj,
		local:       make([]map[guid.GUID]bool, n),
		localFilter: make([]*Filter, n),
		edge:        make([]map[int]*Attenuated, n),
		penalty:     make([]map[int]int, n),
		scratch:     make([]*Filter, n),
	}
	for u := 0; u < n; u++ {
		l.local[u] = make(map[guid.GUID]bool)
		l.localFilter[u] = NewFilter(mBits, k)
		l.edge[u] = make(map[int]*Attenuated, len(adj[u]))
		l.penalty[u] = make(map[int]int)
		l.scratch[u] = NewFilter(mBits, k)
		for _, v := range adj[u] {
			l.edge[u][v] = NewAttenuated(depth, mBits, k)
		}
	}
	return l
}

// Place stores object g at node u.  Call Rebuild after placements.
func (l *Locator) Place(u int, g guid.GUID) {
	l.local[u][g] = true
	l.localFilter[u].Add(g)
}

// Remove drops object g from node u.  Bloom filters cannot delete, so
// the local filter is rebuilt; call Rebuild to repropagate.
func (l *Locator) Remove(u int, g guid.GUID) {
	delete(l.local[u], g)
	l.localFilter[u].Clear()
	for o := range l.local[u] {
		l.localFilter[u].Add(o)
	}
}

// Rebuild recomputes every per-edge attenuated filter by the iterative
// neighbour-exchange rule:
//
//	A[u->v].Layer(0)  = localFilter(v)
//	A[u->v].Layer(i)  = union over w in adj(v) of A[v->w].Layer(i-1)
//
// Running the rule depth times reaches the fixed point a gossiping
// deployment converges to.  The union deliberately includes paths that
// double back (the paper says "through *any* path"), which only adds
// conservative over-approximation.
func (l *Locator) Rebuild() {
	l.rebuildMu.Lock()
	defer l.rebuildMu.Unlock()
	// Layer 0 everywhere first, then each deeper layer from the previous.
	for u, nbrs := range l.adj {
		for _, v := range nbrs {
			l.edge[u][v].Layer(0).CopyFrom(l.localFilter[v])
		}
	}
	for i := 1; i < l.depth; i++ {
		// Layer i of edge u->v is the union over w in adj(v) of
		// A[v->w].Layer(i-1) — a function of v alone.  Compute each
		// node's union once into its preallocated scratch filter, then
		// fan the result out to every edge; the scratch bank keeps the
		// update simultaneous rather than order-dependent, and the
		// whole round is word-level Clear/Union/CopyFrom with zero
		// allocations.
		for v, f := range l.scratch {
			f.Clear()
			for _, w := range l.adj[v] {
				f.Union(l.edge[v][w].Layer(i - 1))
			}
		}
		for u, nbrs := range l.adj {
			for _, v := range nbrs {
				l.edge[u][v].Layer(i).CopyFrom(l.scratch[v])
			}
		}
	}
}

// StateBytes returns the total filter state held at node u — the paper
// emphasises the algorithm uses a constant amount of storage per server.
func (l *Locator) StateBytes(u int) int {
	n := l.localFilter[u].SizeBytes()
	for _, a := range l.edge[u] {
		n += a.SizeBytes()
	}
	return n
}

// QueryResult reports the outcome of a probabilistic location query.
type QueryResult struct {
	Found bool
	Node  int   // node where the object was found
	Hops  int   // edges traversed
	Path  []int // nodes visited, starting at the origin
}

// Query hill-climbs from node start looking for g.  At each node it
// checks the local store, then forwards along the unvisited edge whose
// attenuated filter reports g at the smallest distance; ties break
// uniformly via rng, matching the paper's random-neighbor escape.  The
// query fails — deferring to the global algorithm — when no filter
// matches or after ttl hops chasing false positives.
func (l *Locator) Query(start int, g guid.GUID, ttl int, rng *rand.Rand) QueryResult {
	visited := make([]bool, len(l.adj))
	cur := start
	res := QueryResult{Path: []int{start}}
	for hop := 0; ; hop++ {
		if l.local[cur][g] {
			res.Found, res.Node, res.Hops = true, cur, hop
			return res
		}
		if hop >= ttl {
			res.Hops = hop
			return res
		}
		visited[cur] = true
		best, bestLayer := -1, 1<<30
		nties := 0
		for _, v := range l.adj[cur] {
			if visited[v] {
				continue
			}
			m := l.edge[cur][v].FirstMatch(g)
			if m < 0 {
				continue
			}
			// Reliability factors make abusive neighbours look farther.
			m += l.penalty[cur][v]
			switch {
			case m < bestLayer:
				best, bestLayer, nties = v, m, 1
			case m == bestLayer:
				nties++
				if rng.Intn(nties) == 0 {
					best = v
				}
			}
		}
		if best < 0 {
			res.Hops = hop
			return res
		}
		cur = best
		res.Path = append(res.Path, cur)
	}
}

// Penalize applies a local reliability factor to the edge u->v (§4.3.2:
// "reliability factors can be applied locally to increase the distance
// to nodes that have abused the protocol in the past, automatically
// routing around certain classes of attacks").  Additional penalty
// accumulates; Forgive clears it.
func (l *Locator) Penalize(u, v, amount int) {
	if amount > 0 {
		l.penalty[u][v] += amount
	}
}

// Forgive clears the reliability penalty on edge u->v.
func (l *Locator) Forgive(u, v int) { delete(l.penalty[u], v) }

// ShortestDistance returns the hop distance from start to the closest
// node holding g via breadth-first search, or -1 when unreachable.
// Experiments compare the probabilistic query's hop count against this
// optimum to measure stretch.
func (l *Locator) ShortestDistance(start int, g guid.GUID) int {
	if l.local[start][g] {
		return 0
	}
	dist := map[int]int{start: 0}
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range l.adj[u] {
			if _, ok := dist[v]; ok {
				continue
			}
			dist[v] = dist[u] + 1
			if l.local[v][g] {
				return dist[v]
			}
			queue = append(queue, v)
		}
	}
	return -1
}
