package workload

import (
	"math/rand"
	"testing"
	"time"
)

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(100, 1.0, rng)
	counts := make([]int, 100)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Object 0 must be far more popular than object 50.
	if counts[0] < 5*counts[50]+1 {
		t.Fatalf("skew missing: c0=%d c50=%d", counts[0], counts[50])
	}
	// All indexes in range; every draw counted.
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != draws {
		t.Fatalf("total = %d", total)
	}
}

func TestZipfUniformAtSZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := NewZipf(10, 0, rng)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("s=0 not uniform: counts[%d]=%d", i, c)
		}
	}
}

func TestDiurnalSites(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	obs := Diurnal(5, 50, 1, 2, 9, 17, rng)
	if len(obs) != 250 {
		t.Fatalf("len = %d", len(obs))
	}
	for _, o := range obs {
		hour := int(o.At%(24*time.Hour)) / int(time.Hour)
		want := 2
		if hour >= 9 && hour < 17 {
			want = 1
		}
		if o.Site != want {
			t.Fatalf("hour %d at site %d", hour, o.Site)
		}
	}
}
