package object

import "testing"

// TestHistoryBoundPrunes: a bound of N holds the chain to at most N
// versions after every Add, and Retire leaves no dropped version
// reachable through the chain's backing array — including under a
// policy, like KeepLandmarks, that keeps versions other than a suffix.
func TestHistoryBoundPrunes(t *testing.T) {
	const bound, total = 4, 16
	k := key(31)
	v0 := NewObject([]byte("base"), 8, k)
	h := NewHistory(v0)
	h.SetBound(bound)
	v := v0
	for i := 1; i <= total; i++ {
		v = v.Clone(0)
		h.Add(v)
		if len(h.versions) > bound {
			t.Fatalf("after %d adds: retained %d versions, bound %d", i, len(h.versions), bound)
		}
	}
	if h.Latest().Num != v0.Num+total {
		t.Fatalf("latest %d, want %d", h.Latest().Num, v0.Num+total)
	}
	vs := h.versions
	if len(vs) != bound || vs[len(vs)-1] != h.Latest() {
		t.Fatalf("Versions() holds %d, want the newest %d", len(vs), bound)
	}
	for i := 1; i < len(vs); i++ {
		if vs[i].Num <= vs[i-1].Num {
			t.Fatal("Versions() out of order")
		}
	}
	// Pruned versions are gone from the GUID index too.
	if _, ok := h.ByNum(v0.Num); ok {
		t.Fatal("pruned version still reachable by number")
	}
	if _, ok := h.ByGUID(v0.GUID()); ok {
		t.Fatal("pruned version still reachable by GUID")
	}
	assertTailCleared(t, h)

	// Landmarks keep versions 0, 4, 8 and the last two of 0..9.
	h = NewHistory(v0)
	for v = v0; v.Num < 9; {
		v = v.Clone(0)
		h.Add(v)
	}
	if d := h.Retire(KeepLandmarks{Every: 4, N: 2}); d != 6 {
		t.Fatalf("landmarks dropped %d, want 6", d)
	}
	assertTailCleared(t, h)
}

// assertTailCleared fails if the chain's backing array still points at
// a version past the retained prefix.
func assertTailCleared(t *testing.T, h *History) {
	t.Helper()
	for i, old := range h.versions[len(h.versions):cap(h.versions)] {
		if old != nil {
			t.Fatalf("slot %d past the %d retained still holds version %d", len(h.versions)+i, len(h.versions), old.Num)
		}
	}
}

func TestInvalidateGUIDRecomputes(t *testing.T) {
	k := key(32)
	v := NewObject([]byte("stable contents"), 8, k)
	g1 := v.GUID()
	v.guidSet = false
	if g2 := v.GUID(); g2 != g1 {
		t.Fatalf("recomputed GUID %v differs from %v", g2, g1)
	}
}
