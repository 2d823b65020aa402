package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oceanstore/internal/guid"
)

func TestFilterNoFalseNegatives(t *testing.T) {
	f := NewFilter(1024, 4)
	r := rand.New(rand.NewSource(1))
	var added []guid.GUID
	for i := 0; i < 50; i++ {
		g := guid.Random(r)
		f.Add(g)
		added = append(added, g)
	}
	for _, g := range added {
		if !f.Test(g) {
			t.Fatalf("false negative for %v", g)
		}
	}
}

func TestFilterFalsePositiveRate(t *testing.T) {
	f := NewFilter(4096, 4)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		f.Add(guid.Random(r))
	}
	fp := 0
	const probes = 5000
	for i := 0; i < probes; i++ {
		if f.Test(guid.Random(r)) {
			fp++
		}
	}
	got := float64(fp) / probes
	want := f.FalsePositiveRate(200)
	if got > want*3+0.01 {
		t.Fatalf("observed FP rate %.4f far above theoretical %.4f", got, want)
	}
}

func TestFilterUnion(t *testing.T) {
	a, b := NewFilter(512, 3), NewFilter(512, 3)
	r := rand.New(rand.NewSource(3))
	ga, gb := guid.Random(r), guid.Random(r)
	a.Add(ga)
	b.Add(gb)
	a.Union(b)
	if !a.Test(ga) || !a.Test(gb) {
		t.Fatal("union must contain both sides")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("incompatible union must panic")
		}
	}()
	a.Union(NewFilter(1024, 3))
}

func TestFilterClearCloneEqual(t *testing.T) {
	f := NewFilter(256, 2)
	r := rand.New(rand.NewSource(4))
	g := guid.Random(r)
	f.Add(g)
	c := NewFilter(256, 2)
	c.CopyFrom(f)
	if !c.Equal(f) || !c.Test(g) {
		t.Fatal("copy must equal original")
	}
	f.Clear()
	if f.Test(g) {
		t.Fatal("clear must remove everything")
	}
	if c.Equal(f) {
		t.Fatal("copy must be independent of original")
	}
	if f.FillRatio() != 0 {
		t.Fatal("cleared filter must have fill 0")
	}
}

func TestQuickUnionIsSuperset(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func(na, nb uint8) bool {
		a, b := NewFilter(2048, 4), NewFilter(2048, 4)
		var as, bs []guid.GUID
		for i := 0; i < int(na%32); i++ {
			g := guid.Random(r)
			a.Add(g)
			as = append(as, g)
		}
		for i := 0; i < int(nb%32); i++ {
			g := guid.Random(r)
			b.Add(g)
			bs = append(bs, g)
		}
		a.Union(b)
		for _, g := range append(as, bs...) {
			if !a.Test(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAttenuatedFirstMatch(t *testing.T) {
	a := NewAttenuated(3, 512, 3)
	r := rand.New(rand.NewSource(6))
	g := guid.Random(r)
	if a.FirstMatch(g) != -1 {
		t.Fatal("empty attenuated filter must not match")
	}
	a.Layer(2).Add(g)
	if got := a.FirstMatch(g); got != 2 {
		t.Fatalf("match at layer %d, want 2", got)
	}
	a.Layer(0).Add(g)
	if got := a.FirstMatch(g); got != 0 {
		t.Fatalf("match at layer %d, want 0 (smallest wins)", got)
	}
	if len(a.layers) != 3 {
		t.Fatalf("depth = %d", len(a.layers))
	}
	if a.SizeBytes() != 3*a.Layer(0).SizeBytes() {
		t.Fatal("size must sum layers")
	}
}

// line builds the path topology 0-1-2-...-(n-1).
func line(n int) [][]int {
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			adj[i] = append(adj[i], i-1)
		}
		if i < n-1 {
			adj[i] = append(adj[i], i+1)
		}
	}
	return adj
}

func TestLocatorLinePropagation(t *testing.T) {
	// Object at node 3 of a 5-node line.  After rebuild, node 0's edge
	// filter toward 1 must report it at layer 2 (three hops away).
	l := NewLocator(line(5), 4, 1024, 4)
	r := rand.New(rand.NewSource(7))
	g := guid.Random(r)
	l.Place(3, g)
	l.Rebuild()
	if m := l.edge[0][1].FirstMatch(g); m != 2 {
		t.Fatalf("edge 0->1 first match layer %d, want 2", m)
	}
	if m := l.edge[2][3].FirstMatch(g); m != 0 {
		t.Fatalf("edge 2->3 first match layer %d, want 0", m)
	}
	// Wrong direction: node 4 looking backwards sees it at layer 0 via 3.
	if m := l.edge[4][3].FirstMatch(g); m != 0 {
		t.Fatalf("edge 4->3 first match layer %d, want 0", m)
	}
}

func TestLocatorQueryFindsObjectOptimally(t *testing.T) {
	l := NewLocator(line(6), 5, 2048, 4)
	r := rand.New(rand.NewSource(8))
	g := guid.Random(r)
	l.Place(4, g)
	l.Rebuild()
	res := l.Query(0, g, 10, r)
	if !res.Found || res.Node != 4 {
		t.Fatalf("query failed: %+v", res)
	}
	if res.Hops != 4 {
		t.Fatalf("hops = %d, want 4 (optimal on a line)", res.Hops)
	}
	if d := l.ShortestDistance(0, g); d != 4 {
		t.Fatalf("bfs distance = %d, want 4", d)
	}
}

func TestLocatorQueryLocalHit(t *testing.T) {
	l := NewLocator(line(3), 3, 512, 3)
	r := rand.New(rand.NewSource(9))
	g := guid.Random(r)
	l.Place(1, g)
	l.Rebuild()
	res := l.Query(1, g, 5, r)
	if !res.Found || res.Hops != 0 {
		t.Fatalf("local hit: %+v", res)
	}
}

func TestLocatorQueryMissFailsCleanly(t *testing.T) {
	l := NewLocator(line(4), 3, 512, 3)
	r := rand.New(rand.NewSource(10))
	g := guid.Random(r)
	// Object exists nowhere; with empty filters the query must give up
	// immediately rather than wander.
	l.Rebuild()
	res := l.Query(0, g, 10, r)
	if res.Found {
		t.Fatal("found an object that does not exist")
	}
	if res.Hops != 0 {
		t.Fatalf("wandered %d hops with no filter match", res.Hops)
	}
}

func TestLocatorBeyondDepthNotVisible(t *testing.T) {
	// Depth-2 filters cannot see an object 4 hops away: the query must
	// fail locally (and would fall back to the global algorithm).
	l := NewLocator(line(6), 2, 1024, 4)
	r := rand.New(rand.NewSource(11))
	g := guid.Random(r)
	l.Place(5, g)
	l.Rebuild()
	res := l.Query(0, g, 10, r)
	if res.Found {
		t.Fatalf("depth-2 filter should not locate 5 hops away: %+v", res)
	}
}

func TestLocatorRemove(t *testing.T) {
	l := NewLocator(line(3), 3, 512, 3)
	r := rand.New(rand.NewSource(12))
	g := guid.Random(r)
	l.Place(2, g)
	l.Rebuild()
	if !l.local[2][g] {
		t.Fatal("placed object missing")
	}
	l.Remove(2, g)
	l.Rebuild()
	if l.local[2][g] {
		t.Fatal("removed object still present")
	}
	if res := l.Query(0, g, 10, r); res.Found {
		t.Fatal("query found removed object")
	}
}

func TestLocatorGridSuccessRate(t *testing.T) {
	// 8x8 torus grid, 40 objects placed randomly, depth 4.  The
	// probabilistic algorithm should find the overwhelming majority of
	// objects within depth and with small stretch.
	const side = 8
	n := side * side
	adj := make([][]int, n)
	at := func(x, y int) int { return ((y+side)%side)*side + (x+side)%side }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			u := at(x, y)
			adj[u] = []int{at(x+1, y), at(x-1, y), at(x, y+1), at(x, y-1)}
		}
	}
	l := NewLocator(adj, 4, 8192, 4)
	r := rand.New(rand.NewSource(13))
	var objs []guid.GUID
	for i := 0; i < 40; i++ {
		g := guid.Random(r)
		l.Place(r.Intn(n), g)
		objs = append(objs, g)
	}
	l.Rebuild()
	// The probabilistic tier only sees objects within the filter depth;
	// farther objects legitimately fall through to the global algorithm.
	reachable, found, totHops, totOpt := 0, 0, 0, 0
	for _, g := range objs {
		start := r.Intn(n)
		opt := l.ShortestDistance(start, g)
		if opt > 4 {
			continue
		}
		reachable++
		res := l.Query(start, g, 16, r)
		if res.Found {
			found++
			totHops += res.Hops
			totOpt += opt
		}
	}
	if reachable == 0 {
		t.Fatal("degenerate placement: no object within depth")
	}
	if found*10 < reachable*9 {
		t.Fatalf("found only %d/%d objects within depth", found, reachable)
	}
	if totOpt > 0 && float64(totHops) > 2.5*float64(totOpt)+4 {
		t.Fatalf("stretch too high: %d hops vs %d optimal", totHops, totOpt)
	}
}

func TestStateBytesConstantPerEdge(t *testing.T) {
	l := NewLocator(line(5), 3, 1024, 4)
	// Interior node has 2 edges; endpoint has 1.
	inner, outer := l.StateBytes(2), l.StateBytes(0)
	perEdge := inner - outer
	local := outer - perEdge
	if local <= 0 || perEdge <= 0 {
		t.Fatalf("state bytes inconsistent: inner=%d outer=%d", inner, outer)
	}
}

func TestReliabilityFactorsRouteAroundAbuse(t *testing.T) {
	// A diamond: 0 can reach the object at 3 through 1 or through 2.
	// Penalising the edge toward an abusive neighbour reroutes queries
	// (§4.3.2's "reliability factors").
	adj := [][]int{
		{1, 2}, // 0
		{0, 3}, // 1
		{0, 3}, // 2
		{1, 2}, // 3
	}
	l := NewLocator(adj, 3, 1024, 4)
	r := rand.New(rand.NewSource(40))
	g := guid.Random(r)
	l.Place(3, g)
	l.Rebuild()

	// Heavy penalty on 0->1: queries must go via 2.
	l.Penalize(0, 1, 10)
	via2 := 0
	for i := 0; i < 20; i++ {
		res := l.Query(0, g, 8, r)
		if !res.Found {
			t.Fatal("query failed")
		}
		if len(res.Path) > 1 && res.Path[1] == 2 {
			via2++
		}
	}
	if via2 != 20 {
		t.Fatalf("only %d/20 queries avoided the penalised edge", via2)
	}
	// Forgiveness restores symmetric routing: both paths appear again.
	l.Forgive(0, 1)
	via1 := 0
	for i := 0; i < 40; i++ {
		res := l.Query(0, g, 8, r)
		if len(res.Path) > 1 && res.Path[1] == 1 {
			via1++
		}
	}
	if via1 == 0 {
		t.Fatal("forgiven edge never used")
	}
	// Negative penalties are ignored.
	l.Penalize(0, 1, -5)
	if l.penalty[0][1] != 0 {
		t.Fatal("negative penalty applied")
	}
}
