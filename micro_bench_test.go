package oceanstore

// Micro-benchmarks for the individual mechanisms, complementing the
// per-experiment benches in bench_test.go.

import (
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/bloom"
	"oceanstore/internal/crypt"
	"oceanstore/internal/epidemic"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

// BenchmarkBloomQuery measures one probabilistic location query on a
// 256-node torus with warm filters.
func BenchmarkBloomQuery(b *testing.B) {
	const side = 16
	adj := make([][]int, side*side)
	at := func(x, y int) int { return ((y+side)%side)*side + (x+side)%side }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			adj[at(x, y)] = []int{at(x+1, y), at(x-1, y), at(x, y+1), at(x, y-1)}
		}
	}
	r := rand.New(rand.NewSource(1))
	loc := bloom.NewLocator(adj, 4, 16384, 4)
	var objs []guid.GUID
	for i := 0; i < 200; i++ {
		g := guid.Random(r)
		loc.Place(r.Intn(len(adj)), g)
		objs = append(objs, g)
	}
	loc.Rebuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc.Query(r.Intn(len(adj)), objs[i%len(objs)], 16, r)
	}
}

// BenchmarkBloomRebuild measures full filter propagation, the cost a
// deployment amortises over gossip rounds.
func BenchmarkBloomRebuild(b *testing.B) {
	adj := make([][]int, 64)
	for i := range adj {
		adj[i] = []int{(i + 1) % 64, (i + 63) % 64, (i + 8) % 64, (i + 56) % 64}
	}
	r := rand.New(rand.NewSource(2))
	loc := bloom.NewLocator(adj, 3, 8192, 4)
	for i := 0; i < 100; i++ {
		loc.Place(r.Intn(64), guid.Random(r))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc.Rebuild()
	}
}

// BenchmarkUpdateApply measures guarded-update evaluation and atomic
// application (one append action, one version guard).
func BenchmarkUpdateApply(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	key := crypt.NewBlockKey(r)
	base := object.NewObject(make([]byte, 16<<10), 1024, key)
	ed, _ := object.NewEditor(base, key)
	u := update.NewVersionGuarded(guid.Zero, base.Num, update.BlockOps(ed.Append(make([]byte, 1024))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out, err := update.Apply(u, base, 0); err != nil || !out.Committed {
			b.Fatal("apply failed")
		}
	}
}

// BenchmarkObjectRead measures logical reconstruction (decrypt + walk)
// of a 64 KiB object in 4 KiB blocks.
func BenchmarkObjectRead(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	key := crypt.NewBlockKey(r)
	v := object.NewObject(make([]byte, 64<<10), 4096, key)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := object.NewView(v, key).Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAntiEntropy measures one epidemic reconciliation moving 50
// tentative updates.
func BenchmarkAntiEntropy(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	key := crypt.NewBlockKey(r)
	v0 := object.NewObject([]byte("base"), 1024, key)
	client := guid.FromData([]byte("c"))
	var updates []*update.Update
	for i := 0; i < 50; i++ {
		ed, _ := object.NewEditor(v0, key)
		u := update.NewUnconditional(guid.Zero, update.BlockOps(ed.Append([]byte{byte(i)})))
		u.ClientID, u.Seq, u.Timestamp = client, uint64(i+1), time.Duration(i)
		updates = append(updates, u)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, c := epidemic.New(v0), epidemic.New(v0)
		for _, u := range updates {
			a.AddTentative(u)
		}
		b.StartTimer()
		if moved := epidemic.AntiEntropy(a, c, 0); moved != 50 {
			b.Fatalf("moved %d", moved)
		}
	}
}

// BenchmarkArchiveEncode measures commit-coupled archival encoding of a
// 64 KiB snapshot (rate-1/2, 32 fragments, Merkle-wrapped).
func BenchmarkArchiveEncode(b *testing.B) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(6)).Read(data)
	cfg := archive.Config{DataShards: 16, TotalFragments: 32}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := archive.Encode(data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveEncodeLarge is the same pipeline on a 1 MiB
// snapshot — big enough that the erasure and Merkle kernels fork onto
// the worker pool.  Run with `-cpu 1,2,4` to measure the speedup; the
// -cpu 1 number is the serial fallback.
func BenchmarkArchiveEncodeLarge(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(6)).Read(data)
	cfg := archive.Config{DataShards: 16, TotalFragments: 32}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := archive.Encode(data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignVerifyUpdate measures client-side signing plus the
// server-side signature check every well-behaved replica performs.
func BenchmarkSignVerifyUpdate(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	signer := crypt.NewSigner(r)
	key := crypt.NewBlockKey(r)
	base := object.NewObject([]byte("x"), 1024, key)
	ed, _ := object.NewEditor(base, key)
	u := update.NewUnconditional(guid.Zero, update.BlockOps(ed.Append(make([]byte, 4096))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Seq = uint64(i)
		u.Sign(signer)
		if !u.VerifySig() {
			b.Fatal("verify failed")
		}
	}
}

// TestStatsSnapshotAllocFree pins the Stats() snapshot path at zero
// steady-state allocations: soak drivers poll it per tick, and a
// fresh pair of ByKind/RetriesByKind maps per poll was a measurable
// share of large-world garbage.  The first call may allocate the
// reusable snapshot maps; every later call must not.
func TestStatsSnapshotAllocFree(t *testing.T) {
	k := sim.NewKernel(9)
	net := simnet.New(k, simnet.Config{BaseLatency: time.Millisecond})
	a := net.AddNode(0, 0)
	bn := net.AddNode(1, 0)
	net.HandleAll(func(simnet.NodeID, simnet.Message) {})
	for i := 0; i < 8; i++ {
		net.Send(a.ID, bn.ID, "ping", nil, 64)
		net.NoteRetry("ping")
	}
	k.Run()
	net.Stats() // warm: builds the reusable maps
	allocs := testing.AllocsPerRun(100, func() {
		s := net.Stats()
		if s.MessagesDelivered != 8 {
			t.Fatalf("delivered = %d", s.MessagesDelivered)
		}
	})
	if allocs != 0 {
		t.Fatalf("Stats() allocates %.1f objects per call, want 0", allocs)
	}
}
