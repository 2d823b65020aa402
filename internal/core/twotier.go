package core

import (
	"sort"

	"oceanstore/internal/bloom"
	"oceanstore/internal/guid"
	"oceanstore/internal/simnet"
)

// Two-tier data location (paper §4.3): "a fast, probabilistic algorithm
// attempts to find the object near the requesting machine.  If the
// probabilistic algorithm fails, location is left to a slower,
// deterministic algorithm."  The probabilistic tier is the attenuated
// Bloom filter overlay (package bloom) built over each node's nearest
// neighbours; the deterministic tier is the Plaxton mesh (package
// plaxton), which the pool always maintains.

// The probabilistic tier's shape.
const (
	// twoTierNeighbors is the overlay degree (edges per node).
	twoTierNeighbors = 4
	// twoTierFilterBits and twoTierHashes size each Bloom filter.
	twoTierFilterBits, twoTierHashes = 16384, 4
	// twoTierTTL bounds hill-climbing before falling back to the global
	// tier.
	twoTierTTL = 12
)

// TwoTier is the combined locator.
type TwoTier struct {
	pool  *Pool
	loc   *bloom.Locator
	dirty bool
}

// TierResult reports which tier satisfied a location query.
type TierResult struct {
	Holder simnet.NodeID
	// Probabilistic is true when the Bloom tier answered; false means
	// the deterministic global mesh was used.
	Probabilistic bool
	// Hops is the probabilistic tier's hop count (0 when global).
	Hops int
}

// EnableTwoTier builds the probabilistic overlay over the pool's
// nodes: each node links to its nearest peers, the topology the
// filters summarise.  depth is the attenuated filter depth — the
// probabilistic horizon.
func (p *Pool) EnableTwoTier(depth int) *TwoTier {
	n := p.cfg.Nodes
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		type cand struct {
			j int
			d float64
		}
		cands := make([]cand, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				cands = append(cands, cand{j, p.Net.Distance(simnet.NodeID(i), simnet.NodeID(j))})
			}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
		k := twoTierNeighbors
		if k > len(cands) {
			k = len(cands)
		}
		for _, c := range cands[:k] {
			adj[i] = append(adj[i], c.j)
		}
	}
	// Symmetrise: hill-climbing wants edges traversable both ways.
	for i := range adj {
		for _, j := range adj[i] {
			if !containsInt(adj[j], i) {
				adj[j] = append(adj[j], i)
			}
		}
	}
	tt := &TwoTier{
		pool: p,
		loc:  bloom.NewLocator(adj, depth, twoTierFilterBits, twoTierHashes),
	}
	// Seed with existing replica locations.
	for obj, st := range p.objects {
		for _, nid := range st.ring.Tree().Members() {
			tt.loc.Place(int(nid), obj)
		}
		_ = obj
	}
	tt.dirty = true
	p.twoTier = tt
	return tt
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// notePlacement records a replica placement in the probabilistic tier.
func (tt *TwoTier) notePlacement(node simnet.NodeID, obj guid.GUID) {
	tt.loc.Place(int(node), obj)
	tt.dirty = true
}

// noteRemoval removes a placement.
func (tt *TwoTier) noteRemoval(node simnet.NodeID, obj guid.GUID) {
	tt.loc.Remove(int(node), obj)
	tt.dirty = true
}

// refresh repropagates filters if placements changed — the gossip a
// deployment would run continuously, batched here.
func (tt *TwoTier) refresh() {
	if tt.dirty {
		tt.loc.Rebuild()
		tt.dirty = false
	}
}

// Locate runs the two-tier query from a node: the attenuated-filter
// hill climb first, the Plaxton mesh on a miss.
func (tt *TwoTier) Locate(from simnet.NodeID, obj guid.GUID) (TierResult, error) {
	tt.refresh()
	res := tt.loc.Query(int(from), obj, twoTierTTL, tt.pool.K.Rand())
	if res.Found {
		return TierResult{Holder: simnet.NodeID(res.Node), Probabilistic: true, Hops: res.Hops}, nil
	}
	holder, err := tt.pool.Locate(from, obj)
	if err != nil {
		return TierResult{}, err
	}
	return TierResult{Holder: holder, Probabilistic: false}, nil
}

// ProbabilisticStateBytes reports the filter state at one node, the
// constant-per-server cost the paper emphasises.
func (tt *TwoTier) ProbabilisticStateBytes(node simnet.NodeID) int {
	return tt.loc.StateBytes(int(node))
}
