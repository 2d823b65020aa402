package erasure

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// withProcs runs f under the given GOMAXPROCS, restoring the old value
// — on a single-core host this still timeslices real goroutines, so
// the shared codec state meets real concurrency under -race.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// decodeSet builds a fragment subset that is missing data shard 0, so
// Decode must take the matrix path (and thus the inverse cache).  The
// parity fragment chosen varies with pick, giving distinct cache keys.
func decodeSet(frags []Fragment, n int, pick int) []Fragment {
	sub := append([]Fragment(nil), frags[1:n]...)
	return append(sub, frags[n+pick])
}

// TestInvCacheLRUEviction fills the cache past capacity and checks the
// oldest entry is evicted: decoding it again must be a miss, while a
// recently used set stays a hit.
func TestInvCacheLRUEviction(t *testing.T) {
	const n, f = 4, 64 // f-n = 60 parity rows > invCacheCap = 32
	rs, err := NewReedSolomon(n, f)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(data)
	frags, err := rs.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	decodePick := func(pick int) {
		got, err := rs.Decode(decodeSet(frags, n, pick), len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pick %d: decode mismatch", pick)
		}
	}

	decodePick(0) // the set that will be evicted
	for pick := 1; pick <= invCacheCap; pick++ {
		decodePick(pick) // 32 more distinct sets -> capacity exceeded
	}
	_, misses := rs.CacheStats()
	decodePick(0) // must have been evicted: a fresh miss
	_, misses2 := rs.CacheStats()
	if misses2 != misses+1 {
		t.Fatalf("re-decoding evicted set: misses %d -> %d, want +1", misses, misses2)
	}
	hits, _ := rs.CacheStats()
	decodePick(0) // just inserted: a hit
	hits2, misses3 := rs.CacheStats()
	if hits2 != hits+1 || misses3 != misses2 {
		t.Fatalf("re-decoding fresh set: hits %d -> %d misses %d -> %d, want hit",
			hits, hits2, misses2, misses3)
	}
}

// TestCacheStatsAccounting pins exact hit/miss counts for a known
// access pattern, including the systematic fast path not touching the
// cache at all.
func TestCacheStatsAccounting(t *testing.T) {
	rs, err := NewReedSolomon(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(data)
	frags, err := rs.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := rs.CacheStats(); h != 0 || m != 0 {
		t.Fatalf("fresh codec: stats %d/%d", h, m)
	}
	// Systematic decode: all data shards present, no cache traffic.
	if _, err := rs.Decode(frags[:4], len(data)); err != nil {
		t.Fatal(err)
	}
	if h, m := rs.CacheStats(); h != 0 || m != 0 {
		t.Fatalf("systematic decode touched the cache: %d/%d", h, m)
	}
	set := decodeSet(frags, 4, 0)
	for i := 0; i < 3; i++ {
		if _, err := rs.Decode(set, len(data)); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := rs.CacheStats(); h != 2 || m != 1 {
		t.Fatalf("3 identical matrix decodes: stats %d hits/%d misses, want 2/1", h, m)
	}
	// Same index set in a different arrival order: same key, a hit.
	shuffled := append([]Fragment(nil), set...)
	shuffled[0], shuffled[len(shuffled)-1] = shuffled[len(shuffled)-1], shuffled[0]
	if _, err := rs.Decode(shuffled, len(data)); err != nil {
		t.Fatal(err)
	}
	if h, m := rs.CacheStats(); h != 3 || m != 1 {
		t.Fatalf("order-insensitive key: stats %d/%d, want 3/1", h, m)
	}
}

// TestCacheStatsProcsConsistent pins exact accounting under
// concurrency: N concurrent decodes spread over M distinct fragment
// sets are exactly M misses and N-M hits, with no drift between worker
// counts.  A cache that inverts outside its lock races compute-then-put,
// so the split depends on scheduling and differs between GOMAXPROCS=1
// and 4.
func TestCacheStatsProcsConsistent(t *testing.T) {
	const goroutines, sets, rounds = 12, 3, 4
	run := func(procs int) (hits, misses uint64) {
		withProcs(procs, func() {
			rs, err := NewReedSolomon(4, 12)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 8<<10)
			rand.New(rand.NewSource(4)).Read(data)
			frags, err := rs.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					set := decodeSet(frags, 4, g%sets)
					for i := 0; i < rounds; i++ {
						got, err := rs.Decode(set, len(data))
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(got, data) {
							t.Error("decode mismatch")
							return
						}
					}
				}()
			}
			wg.Wait()
			hits, misses = rs.CacheStats()
		})
		return hits, misses
	}
	const total = goroutines * rounds
	for _, procs := range []int{1, 4} {
		h, m := run(procs)
		if m != sets || h != total-sets {
			t.Fatalf("GOMAXPROCS=%d: stats %d hits/%d misses, want %d/%d",
				procs, h, m, total-sets, sets)
		}
	}
}

// TestConcurrentSameSetDecode has many goroutines decode the same
// fragment-index set at once: they may race to insert the same key,
// but every one must get a correct reconstruction, and afterwards the
// cache must serve hits.
func TestConcurrentSameSetDecode(t *testing.T) {
	withProcs(4, func() {
		rs, err := NewReedSolomon(8, 16)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 64<<10)
		rand.New(rand.NewSource(3)).Read(data)
		frags, err := rs.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		set := decodeSet(frags, 8, 3)
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := rs.Decode(set, len(data))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Error("concurrent decode mismatch")
				}
			}()
		}
		wg.Wait()
		hits, misses := rs.CacheStats()
		if hits+misses != 16 {
			t.Fatalf("16 decodes recorded %d hits + %d misses", hits, misses)
		}
		if hits == 0 {
			t.Fatal("no decode ever hit the cache")
		}
		// The key was raced at most a handful of times; afterwards one
		// more decode must be a pure hit.
		if _, err := rs.Decode(set, len(data)); err != nil {
			t.Fatal(err)
		}
		h2, m2 := rs.CacheStats()
		if h2 != hits+1 || m2 != misses {
			t.Fatalf("post-race decode: stats %d/%d -> %d/%d, want one more hit", hits, misses, h2, m2)
		}
	})
}

// TestConcurrentEncodeDecodeRace hammers one shared codec from many
// goroutines — the scratch pool and the decode-matrix cache under
// -race.  Every goroutine must round-trip its own payload.
func TestConcurrentEncodeDecodeRace(t *testing.T) {
	withProcs(4, func() {
		rs, err := NewReedSolomon(8, 16)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(g)))
				data := make([]byte, 40<<10)
				r.Read(data)
				for iter := 0; iter < 10; iter++ {
					frags, err := rs.Encode(data)
					if err != nil {
						t.Error(err)
						return
					}
					// Rotate which half survives so different goroutines
					// exercise different cache keys concurrently.
					sub := append([]Fragment(nil), frags[(g+iter)%8:]...)
					got, err := rs.Decode(sub[:8], len(data))
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, data) {
						t.Errorf("goroutine %d iter %d: round-trip mismatch", g, iter)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
