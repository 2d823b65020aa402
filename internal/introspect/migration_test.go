package introspect

import (
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/guid"
)

func TestPrefetchCandidates(t *testing.T) {
	c := NewClusterRecognizer(3)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		c.Access(g(1))
		c.Access(g(2))
		c.Access(g(3))
		for j := 0; j < 4; j++ {
			c.Access(g(byte(100 + r.Intn(120))))
		}
	}
	cands := c.PrefetchCandidates(g(2), 10)
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	seen := map[string]bool{}
	for _, x := range cands {
		seen[x.String()] = true
	}
	if !seen[g(1).String()] || !seen[g(3).String()] {
		t.Fatalf("candidates missing cluster mates: %v", cands)
	}
	if c.PrefetchCandidates(g(200), 10) != nil {
		t.Fatal("unclustered object returned candidates")
	}
}

func TestMigrationDetectorDayNightCycle(t *testing.T) {
	// The paper's scenario: project files at the office during the work
	// day, at home at night.
	const day = 24 * time.Hour
	const office, home = 1, 2
	m := NewMigrationDetector(day, 24)
	r := rand.New(rand.NewSource(2))
	for d := 0; d < 14; d++ { // two weeks of history
		base := time.Duration(d) * day
		for h := 9; h < 17; h++ { // work hours at the office
			m.Observe(office, base+time.Duration(h)*time.Hour+time.Duration(r.Intn(60))*time.Minute)
		}
		for _, h := range []int{20, 21, 22} { // evenings at home
			m.Observe(home, base+time.Duration(h)*time.Hour)
		}
	}
	// Predictions for a future day.
	future := 30 * day
	if site, ok := m.PredictSite(future + 11*time.Hour); !ok || site != office {
		t.Fatalf("11:00 predicted site %d, want office", site)
	}
	if site, ok := m.PredictSite(future + 21*time.Hour); !ok || site != home {
		t.Fatalf("21:00 predicted site %d, want home", site)
	}
	// Slots with no history yield no prediction.
	if _, ok := m.PredictSite(future + 4*time.Hour); ok {
		t.Fatal("4:00 predicted despite no signal")
	}
	// Confidence is high for consistent slots, zero for empty ones.
	if conf := m.Confidence(future + 11*time.Hour); conf < 0.9 {
		t.Fatalf("office-hours confidence %.2f", conf)
	}
	if conf := m.Confidence(future + 4*time.Hour); conf != 0 {
		t.Fatalf("empty-slot confidence %.2f", conf)
	}
}

func TestMigrationDetectorDegenerateConfig(t *testing.T) {
	m := NewMigrationDetector(time.Hour, 0) // slots defaulted
	m.Observe(3, 30*time.Minute)
	if site, ok := m.PredictSite(90 * time.Minute); !ok || site != 3 {
		t.Fatalf("fold across periods failed: %d %v", site, ok)
	}
	// Zero period folds everything into slot 0.
	z := NewMigrationDetector(0, 4)
	z.Observe(7, time.Hour)
	if site, ok := z.PredictSite(5 * time.Hour); !ok || site != 7 {
		t.Fatal("zero-period detector broken")
	}
}

func TestPrefetchCandidatesDeterministic(t *testing.T) {
	c := NewClusterRecognizer(2)
	for i := 0; i < 20; i++ {
		c.Access(g(1))
		c.Access(g(2))
		c.Access(g(200)) // flush
		c.Access(g(201))
	}
	a := c.PrefetchCandidates(g(1), 10)
	b := c.PrefetchCandidates(g(1), 10)
	if len(a) != len(b) {
		t.Fatal("nondeterministic candidates")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic candidate order")
		}
	}
	var _ = guid.Zero
}
