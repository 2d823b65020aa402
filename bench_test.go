package oceanstore

// Benchmarks, one per experiment in DESIGN.md §3 plus the ablations of
// §4.  Wall-clock throughput is reported by the usual ns/op; the
// paper's quantities (normalized byte cost, virtual latency, hop
// counts, hit rates) are attached as custom metrics so `go test
// -bench` regenerates each figure's headline numbers.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/bloom"
	"oceanstore/internal/byz"
	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/introspect"
	"oceanstore/internal/merkle"
	"oceanstore/internal/object"
	"oceanstore/internal/plaxton"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// newTier builds an (n, f) primary tier plus one client on uniform
// 100 ms links.
func newTier(n, f int, seed int64) (*sim.Kernel, *simnet.Network, *byz.Group, simnet.NodeID) {
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{BaseLatency: 100 * time.Millisecond})
	var nodes []simnet.NodeID
	for i := 0; i < n; i++ {
		nodes = append(nodes, net.AddNode(0, 0).ID)
	}
	client := net.AddNode(0, 0).ID
	g, err := byz.NewGroup(net, nodes, f, guid.Zero)
	if err != nil {
		panic(err)
	}
	return k, net, g, client
}

// BenchmarkFig6UpdateCost regenerates Figure 6's series: one committed
// update per iteration; the normalized byte cost b/(u·n) is reported
// per tier and update size.
func BenchmarkFig6UpdateCost(b *testing.B) {
	for _, tier := range [][2]int{{2, 7}, {3, 10}, {4, 13}} {
		m, n := tier[0], tier[1]
		for _, u := range []int{4 << 10, 100 << 10} {
			b.Run(fmt.Sprintf("m%d_n%d_u%dk", m, n, u>>10), func(b *testing.B) {
				var norm float64
				for i := 0; i < b.N; i++ {
					k, net, g, client := newTier(n, m, int64(i))
					net.ResetStats()
					done := false
					g.Submit(client, byz.Request{
						ID: guid.FromData([]byte(fmt.Sprint(i, u))), Payload: "u", Size: u,
					}, func(byz.Result) { done = true })
					k.RunFor(20 * time.Second)
					if !done {
						b.Fatal("update did not commit")
					}
					norm = float64(net.Stats().BytesSent) / float64(u*n)
				}
				b.ReportMetric(norm, "normcost")
			})
		}
	}
}

// BenchmarkE2CommitLatency reports the virtual commit latency under
// 100 ms WAN messages (paper: six phases, <1 s).
func BenchmarkE2CommitLatency(b *testing.B) {
	for _, tier := range [][2]int{{2, 7}, {4, 13}} {
		m, n := tier[0], tier[1]
		b.Run(fmt.Sprintf("m%d_n%d", m, n), func(b *testing.B) {
			var lat time.Duration
			for i := 0; i < b.N; i++ {
				k, _, g, client := newTier(n, m, int64(i))
				g.Submit(client, byz.Request{
					ID: guid.FromData([]byte(fmt.Sprint("lat", i))), Payload: "u", Size: 4096,
				}, func(r byz.Result) { lat = r.Latency })
				k.RunFor(20 * time.Second)
			}
			b.ReportMetric(float64(lat.Milliseconds()), "virtual-ms")
		})
	}
}

// BenchmarkE3Reliability evaluates the §4.5 availability formula and a
// Monte-Carlo validation; the availability is reported as nines.
func BenchmarkE3Reliability(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.Run("closed_form_f32", func(b *testing.B) {
		var p float64
		for i := 0; i < b.N; i++ {
			p = archive.Availability(32, 16, 0.1)
		}
		b.ReportMetric(archive.Nines(p), "nines")
	})
	b.Run("monte_carlo_f32", func(b *testing.B) {
		var p float64
		for i := 0; i < b.N; i++ {
			p = archive.AvailabilityMonteCarlo(32, 16, 0.1, 10000, rng)
		}
		b.ReportMetric(p, "availability")
	})
}

// BenchmarkE4BloomLocation runs probabilistic queries over a 256-node
// torus and reports the success rate within the filter horizon.
func BenchmarkE4BloomLocation(b *testing.B) {
	const side = 16
	adj := make([][]int, side*side)
	at := func(x, y int) int { return ((y+side)%side)*side + (x+side)%side }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			adj[at(x, y)] = []int{at(x+1, y), at(x-1, y), at(x, y+1), at(x, y-1)}
		}
	}
	r := rand.New(rand.NewSource(2))
	loc := bloom.NewLocator(adj, 4, 16384, 4)
	var objs []guid.GUID
	for i := 0; i < 100; i++ {
		g := guid.Random(r)
		loc.Place(r.Intn(len(adj)), g)
		objs = append(objs, g)
	}
	loc.Rebuild()
	b.ResetTimer()
	found, within := 0, 0
	for i := 0; i < b.N; i++ {
		g := objs[i%len(objs)]
		start := r.Intn(len(adj))
		if d := loc.ShortestDistance(start, g); d > 4 {
			continue
		}
		within++
		if res := loc.Query(start, g, 16, r); res.Found {
			found++
		}
	}
	if within > 0 {
		b.ReportMetric(float64(found)/float64(within), "success")
	}
}

// BenchmarkE5PlaxtonRouting measures mesh routing and reports average
// hops (paper: O(log16 n)).
func BenchmarkE5PlaxtonRouting(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(3))
			ids := make([]guid.GUID, n)
			pos := make([][2]float64, n)
			for i := range ids {
				ids[i] = guid.Random(r)
				pos[i] = [2]float64{r.Float64() * 100, r.Float64() * 100}
			}
			mesh := plaxton.New(ids, func(a, c int) float64 {
				dx, dy := pos[a][0]-pos[c][0], pos[a][1]-pos[c][1]
				return dx*dx + dy*dy
			})
			b.ResetTimer()
			hops := 0
			for i := 0; i < b.N; i++ {
				res, err := mesh.RouteToRoot(i%n, guid.Random(r))
				if err != nil {
					b.Fatal(err)
				}
				hops += res.Hops()
			}
			b.ReportMetric(float64(hops)/float64(b.N), "hops")
		})
	}
}

// BenchmarkE6Reconstruction reconstructs archives under 10% message
// loss with and without extra fragment requests, reporting the virtual
// retrieval latency.
func BenchmarkE6Reconstruction(b *testing.B) {
	for _, extra := range []int{0, 8} {
		b.Run(fmt.Sprintf("extra%d", extra), func(b *testing.B) {
			var lat time.Duration
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel(int64(i))
				net := simnet.New(k, simnet.Config{
					BaseLatency: 20 * time.Millisecond, LatencyPerUnit: time.Millisecond, DropProb: 0.1,
				})
				nodes := net.AddRandomNodes(48, 50, 6)
				svc := archive.NewService(net, nodes)
				data := make([]byte, 4096)
				rand.New(rand.NewSource(int64(i))).Read(data)
				root, err := svc.Archive(data, archive.Config{DataShards: 16, TotalFragments: 32}, nil)
				if err != nil {
					b.Fatal(err)
				}
				svc.Retrieve(0, root, extra, 5*time.Second, func(d []byte, err error, l time.Duration) {
					if err == nil && bytes.Equal(d, data) {
						lat = l
					}
				})
				k.RunFor(10 * time.Second)
			}
			b.ReportMetric(float64(lat.Milliseconds()), "virtual-ms")
		})
	}
}

// BenchmarkE7Prefetch trains and queries the Markov prefetcher on a
// noisy correlated trace, reporting the hit rate.
func BenchmarkE7Prefetch(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	A, B, C, D, X := gobj(1), gobj(2), gobj(3), gobj(4), gobj(5)
	var trace []guid.GUID
	for len(trace) < 600 {
		if r.Float64() < 0.3 {
			trace = append(trace, gobj(byte(50+r.Intn(150))))
			continue
		}
		if r.Float64() < 0.5 {
			trace = append(trace, A, B, C)
		} else {
			trace = append(trace, X, B, D)
		}
	}
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = introspect.HitRate(introspect.NewPrefetcher(2), trace, 1, 60)
	}
	b.ReportMetric(rate, "hitrate")
}

func gobj(x byte) guid.GUID { return guid.FromData([]byte{x}) }

// BenchmarkE8CiphertextOps measures the Figure 4 insert (append two
// re-encrypted blocks + replace one with a pointer block).
func BenchmarkE8CiphertextOps(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	key := crypt.NewBlockKey(r)
	base := object.NewObject(bytes.Repeat([]byte("x"), 64<<10), 4096, key)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ed, err := object.NewEditor(base, key)
		if err != nil {
			b.Fatal(err)
		}
		ops, err := ed.InsertBefore(8, bytes.Repeat([]byte("y"), 4096))
		if err != nil {
			b.Fatal(err)
		}
		v := base.Clone(0)
		for _, op := range ops {
			if err := v.ApplyOp(op); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMerkleFragmentVerify measures per-fragment self-verification.
func BenchmarkMerkleFragmentVerify(b *testing.B) {
	frags := make([][]byte, 32)
	r := rand.New(rand.NewSource(7))
	for i := range frags {
		frags[i] = make([]byte, 4096)
		r.Read(frags[i])
	}
	tree := merkle.Build(frags)
	proof := tree.Proof(5)
	root := tree.Root()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !merkle.Verify(frags[5], 5, 32, proof, root) {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkSearchOnCiphertext measures the SWP-style trapdoor scan.
func BenchmarkSearchOnCiphertext(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	sk := crypt.NewSearchKey(crypt.NewBlockKey(r))
	words := make([]string, 1000)
	for i := range words {
		words[i] = fmt.Sprintf("word%d", r.Intn(200))
	}
	idx := sk.BuildIndex(words)
	td := sk.Trapdoor("word7")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(td)
	}
}

// BenchmarkEndToEndUpdate drives a full pool update through the public
// API: Byzantine commitment, dissemination, archival coupling.
func BenchmarkEndToEndUpdate(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Nodes = 32
	cfg.Ring.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	world := NewWorld(9, cfg)
	alice := world.NewClient("alice")
	doc, err := alice.Create("bench", []byte("x"))
	if err != nil {
		b.Fatal(err)
	}
	sess := alice.NewSession(ACID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Append(doc, []byte("y")); err != nil {
			b.Fatal(err)
		}
		world.Run(30 * time.Second)
	}
}
