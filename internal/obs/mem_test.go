package obs

import (
	"runtime"
	"strings"
	"testing"
)

func TestSampleMem(t *testing.T) {
	s := SampleMem()
	if s.HeapAlloc == 0 || s.TotalAlloc == 0 || s.Mallocs == 0 {
		t.Fatalf("empty sample: %+v", s)
	}
	if s.PeakRSS == 0 {
		t.Fatal("peak RSS unavailable on linux CI")
	}
	if s.PeakRSS < s.HeapAlloc/4 {
		t.Fatalf("peak RSS %d implausibly small vs heap %d", s.PeakRSS, s.HeapAlloc)
	}
}

func TestMemSampleReport(t *testing.T) {
	s := MemSample{
		HeapAlloc: 3 << 20, HeapSys: 4 << 20,
		TotalAlloc: 2 << 30, Mallocs: 12345,
		NumGC: 7, PauseTotalNs: 2_000_000,
		PeakRSS: 5 << 20,
	}
	var b strings.Builder
	s.Report(&b)
	want := "mem: heap 3.0 MB (sys 4.0 MB), allocated 2.00 GB in 12345 objects, 7 GCs (2 ms paused), peak RSS 5.0 MB\n"
	if b.String() != want {
		t.Fatalf("report %q\nwant   %q", b.String(), want)
	}
	b.Reset()
	s.Live, s.Writes = 2<<20, 1024
	s.Report(&b)
	want = want[:len(want)-1] + "; live 2.0 MB after GC, retained 2048 B/write over 1024 writes\n"
	if b.String() != want {
		t.Fatalf("report %q\nwant   %q", b.String(), want)
	}
}

func TestLiveHeap(t *testing.T) {
	keep := make([]byte, 8<<20)
	if live := LiveHeap(); live < uint64(len(keep)) {
		t.Fatalf("live heap %d below the %d bytes still referenced", live, len(keep))
	}
	runtime.KeepAlive(keep)
}

func TestCounterValue(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("layer", "hits").Add(3)
	if got := reg.CounterValue(NodeWide, "layer", "hits"); got != 3 {
		t.Fatalf("CounterValue %d, want 3", got)
	}
	if got := reg.CounterValue(NodeWide, "layer", "absent"); got != 0 {
		t.Fatalf("absent counter %d, want 0", got)
	}
}
