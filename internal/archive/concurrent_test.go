package archive

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentCodecCache races Config.Codec and full Encode/Decode
// round-trips across goroutines and distinct configs — the sync.Map
// codec cache, the shared RS codec, and the framed-buffer pool all
// under -race.
func TestConcurrentCodecCache(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfgs := []Config{
		{DataShards: 4, TotalFragments: 8},
		{DataShards: 8, TotalFragments: 16},
		{DataShards: 8, TotalFragments: 32},
	}
	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := cfgs[g%len(cfgs)]
			r := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 8; iter++ {
				data := make([]byte, 4096+r.Intn(4096))
				r.Read(data)
				_, frags, err := Encode(data, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := Decode(frags, cfg)
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
	// The cache must have deduplicated: same config, same codec pointer.
	c1, err := cfgs[0].Codec()
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := cfgs[0].Codec()
	if c1 != c2 {
		t.Fatal("codec cache returned distinct codecs for one config")
	}
}

// TestMonteCarloDeterministicAcrossProcs: the availability estimate is
// a pure function of the seed — block-seeded sub-streams make the
// result identical at any pool width.
func TestMonteCarloDeterministicAcrossProcs(t *testing.T) {
	run := func(procs int) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return AvailabilityMonteCarlo(32, 16, 0.1, 50000, rand.New(rand.NewSource(5)))
	}
	serial := run(1)
	for _, procs := range []int{2, 4, 8} {
		if got := run(procs); got != serial {
			t.Fatalf("procs=%d: estimate %v differs from serial %v", procs, got, serial)
		}
	}
	if closed := Availability(32, 16, 0.1); serial < closed-0.01 || serial > closed+0.01 {
		t.Fatalf("estimate %v far from closed form %v", serial, closed)
	}
}
