package plaxton

import (
	"math"
	"math/rand"
	"testing"

	"oceanstore/internal/guid"
)

// plane holds node positions.
type plane struct {
	pos [][2]float64
}

func (p *plane) dist(a, b int) float64 {
	dx, dy := p.pos[a][0]-p.pos[b][0], p.pos[a][1]-p.pos[b][1]
	return math.Hypot(dx, dy)
}

// testMesh builds an n-node mesh with nodes at random plane positions.
func testMesh(t *testing.T, n int, seed int64) (*Mesh, *plane, *rand.Rand) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := &plane{}
	ids := make([]guid.GUID, n)
	for i := range ids {
		ids[i] = guid.Random(r)
		p.pos = append(p.pos, [2]float64{r.Float64() * 100, r.Float64() * 100})
	}
	return New(ids, p.dist), p, r
}

func TestRouteConvergesToUniqueRoot(t *testing.T) {
	m, _, r := testMesh(t, 128, 1)
	for trial := 0; trial < 20; trial++ {
		g := guid.Random(r)
		root := -1
		for _, start := range []int{0, 17, 63, 127, r.Intn(128)} {
			res, err := m.RouteToRoot(start, g)
			if err != nil {
				t.Fatal(err)
			}
			end := res.Path[len(res.Path)-1]
			if root == -1 {
				root = end
			} else if end != root {
				t.Fatalf("trial %d: start %d reached %d, others reached %d", trial, start, end, root)
			}
		}
	}
}

func TestRouteHopsLogarithmic(t *testing.T) {
	// O(log n) routing: average hops should be near log16(n) and far
	// below n.
	for _, n := range []int{64, 256, 1024} {
		m, _, r := testMesh(t, n, 2)
		tot, trials := 0, 50
		for i := 0; i < trials; i++ {
			res, err := m.RouteToRoot(r.Intn(n), guid.Random(r))
			if err != nil {
				t.Fatal(err)
			}
			tot += res.Hops()
		}
		avg := float64(tot) / float64(trials)
		logN := math.Log(float64(n)) / math.Log(16)
		if avg > 4*logN+3 {
			t.Fatalf("n=%d: avg hops %.1f >> log16(n)=%.1f", n, avg, logN)
		}
	}
}

func TestPublishLocate(t *testing.T) {
	m, _, r := testMesh(t, 128, 3)
	g := guid.Random(r)
	holder := 42
	hops, err := m.Publish(holder, g)
	if err != nil {
		t.Fatal(err)
	}
	if hops < 0 {
		t.Fatalf("publish hops = %d", hops)
	}
	for start := 0; start < 128; start += 13 {
		res, err := m.Locate(start, g)
		if err != nil {
			t.Fatalf("locate from %d: %v", start, err)
		}
		if res.Holder != holder {
			t.Fatalf("located holder %d, want %d", res.Holder, holder)
		}
	}
	// Self-locate: the holder finds itself at zero cost.
	res, err := m.Locate(holder, g)
	if err != nil || res.Hops != 0 || res.Distance != 0 {
		t.Fatalf("self locate: %+v %v", res, err)
	}
}

func TestLocateMissingObject(t *testing.T) {
	m, _, r := testMesh(t, 64, 4)
	if _, err := m.Locate(0, guid.Random(r)); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestLocatePrefersCloseReplica(t *testing.T) {
	// The paper's locality claim: queries find nearby replicas.  With a
	// replica on every 8th node, the located holder should be much
	// closer than a random node on average.
	m, p, r := testMesh(t, 256, 5)
	g := guid.Random(r)
	var holders []int
	for i := 0; i < 256; i += 8 {
		if _, err := m.Publish(i, g); err != nil {
			t.Fatal(err)
		}
		holders = append(holders, i)
	}
	planeDist := p.dist
	var locSum, randSum float64
	for trial := 0; trial < 40; trial++ {
		start := r.Intn(256)
		res, err := m.Locate(start, g)
		if err != nil {
			t.Fatal(err)
		}
		locSum += planeDist(start, res.Holder)
		randSum += planeDist(start, holders[r.Intn(len(holders))])
	}
	if locSum >= randSum {
		t.Fatalf("located replicas not closer than random: %.1f vs %.1f", locSum, randSum)
	}
}

func TestUnpublish(t *testing.T) {
	m, _, r := testMesh(t, 64, 6)
	g := guid.Random(r)
	if _, err := m.Publish(10, g); err != nil {
		t.Fatal(err)
	}
	m.Unpublish(10, g)
	if _, err := m.Locate(3, g); err != ErrNotFound {
		t.Fatalf("unpublished object still located: %v", err)
	}
}

func TestSaltedRootsSurviveRootFailure(t *testing.T) {
	m, _, r := testMesh(t, 128, 7)
	m.Salts = 4
	g := guid.Random(r)
	holder := 9
	if _, err := m.Publish(holder, g); err != nil {
		t.Fatal(err)
	}
	// Kill the primary root (and everything on the primary path except
	// the holder itself).
	res, _ := m.RouteToRoot(holder, g)
	for _, idx := range res.Path {
		if idx != holder {
			m.RemoveNode(idx)
		}
	}
	found := 0
	for start := 0; start < 128; start += 7 {
		if m.Node(start).Down {
			continue
		}
		if res, err := m.Locate(start, g); err == nil && res.Holder == holder {
			found++
		}
	}
	if found < 10 {
		t.Fatalf("only %d/19 locates succeeded after root failure with 4 salts", found)
	}
}

func TestDeadHolderSkipped(t *testing.T) {
	m, _, r := testMesh(t, 64, 9)
	g := guid.Random(r)
	if _, err := m.Publish(5, g); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Publish(40, g); err != nil {
		t.Fatal(err)
	}
	m.RemoveNode(5)
	res, err := m.Locate(6, g)
	if err != nil {
		t.Fatal("locate failed though a live replica exists")
	}
	if res.Holder != 40 {
		t.Fatalf("located dead holder %d", res.Holder)
	}
}

func TestRouteFromDownNodeFails(t *testing.T) {
	m, _, r := testMesh(t, 32, 12)
	m.RemoveNode(4)
	if _, err := m.RouteToRoot(4, guid.Random(r)); err == nil {
		t.Fatal("route from down node succeeded")
	}
	if _, err := m.Locate(4, guid.Random(r)); err == nil {
		t.Fatal("locate from down node succeeded")
	}
	if _, err := m.Publish(4, guid.Random(r)); err == nil {
		t.Fatal("publish from down node succeeded")
	}
}

func TestTinyMeshes(t *testing.T) {
	// Degenerate sizes must not panic and must still locate.
	for _, n := range []int{1, 2, 3} {
		m, _, r := testMesh(t, n, int64(20+n))
		g := guid.Random(r)
		if _, err := m.Publish(0, g); err != nil {
			t.Fatal(err)
		}
		res, err := m.Locate(n-1, g)
		if err != nil || res.Holder != 0 {
			t.Fatalf("n=%d: %+v %v", n, res, err)
		}
	}
}

func TestPointerCountGrowsWithPublish(t *testing.T) {
	m, _, r := testMesh(t, 64, 13)
	g := guid.Random(r)
	if _, err := m.Publish(7, g); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 64; i++ {
		total += m.PointerCount(i)
	}
	if total == 0 {
		t.Fatal("publish deposited no pointers")
	}
	// Publishing twice from the same holder must not duplicate pointers.
	if _, err := m.Publish(7, g); err != nil {
		t.Fatal(err)
	}
	total2 := 0
	for i := 0; i < 64; i++ {
		total2 += m.PointerCount(i)
	}
	if total2 != total {
		t.Fatalf("republish duplicated pointers: %d -> %d", total, total2)
	}
}
