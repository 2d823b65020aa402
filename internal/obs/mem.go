// Memory-observability rail: heap and allocation gauges sampled from
// the Go runtime, plus the process's peak RSS from the kernel.
//
// These values are real-machine facts — they vary with GC timing,
// GOMAXPROCS and allocator layout — so they must NEVER enter a
// Registry: registry dumps are part of the determinism contract
// (byte-identical at any GOMAXPROCS and storage backend), and one
// runtime gauge would break it.  MemSample therefore lives beside the
// registry, not in it: drivers print it to stderr or a side channel,
// and `make gates` requires the soak's line.
package obs

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// MemSample is one point-in-time view of the process's memory.
type MemSample struct {
	// HeapAlloc is live heap bytes at sample time.
	HeapAlloc uint64
	// HeapSys is heap address space obtained from the OS.
	HeapSys uint64
	// TotalAlloc is cumulative bytes allocated (never decreases) —
	// divided by ops it gives the end-to-end bytes-per-op figure the
	// zero-alloc work drives down.
	TotalAlloc uint64
	// Mallocs is the cumulative allocation count.
	Mallocs uint64
	// NumGC is the number of completed GC cycles.
	NumGC uint32
	// PauseTotalNs is cumulative stop-the-world pause time.
	PauseTotalNs uint64
	// PeakRSS is the process's high-water resident set in bytes
	// (VmHWM), 0 where /proc is unavailable.
	PeakRSS uint64
	// Live is LiveHeap read after the run and Writes the run's committed
	// writes; when Live is set, Report adds it and Live/Writes, the heap
	// retained per write.
	Live   uint64
	Writes int
}

// SampleMem reads the runtime's memory statistics and the process
// peak RSS.  It does not force a GC, so HeapAlloc includes garbage
// not yet collected; TotalAlloc/Mallocs are exact regardless.
func SampleMem() MemSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemSample{
		HeapAlloc:    ms.HeapAlloc,
		HeapSys:      ms.HeapSys,
		TotalAlloc:   ms.TotalAlloc,
		Mallocs:      ms.Mallocs,
		NumGC:        ms.NumGC,
		PauseTotalNs: ms.PauseTotalNs,
		PeakRSS:      PeakRSS(),
	}
}

// LiveHeap forces a garbage collection and returns the heap still
// reachable: what the process retains, where HeapAlloc adds garbage
// not yet collected.  The collection perturbs whatever runs beside it,
// so drivers call it once their measured run is over.
func LiveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// PeakRSS returns the process's high-water resident set size in bytes
// by reading VmHWM from /proc/self/status, or 0 if that fails (non-
// Linux, restricted /proc).
func PeakRSS() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// Report prints the sample as one human-readable line.
func (s MemSample) Report(w io.Writer) {
	fmt.Fprintf(w, "mem: heap %.1f MB (sys %.1f MB), allocated %.2f GB in %d objects, %d GCs (%.0f ms paused), peak RSS %.1f MB",
		float64(s.HeapAlloc)/(1<<20), float64(s.HeapSys)/(1<<20),
		float64(s.TotalAlloc)/(1<<30), s.Mallocs,
		s.NumGC, float64(s.PauseTotalNs)/1e6,
		float64(s.PeakRSS)/(1<<20))
	if s.Live > 0 {
		fmt.Fprintf(w, "; live %.1f MB after GC, retained %.0f B/write over %d writes",
			float64(s.Live)/(1<<20), float64(s.Live)/float64(max(s.Writes, 1)), s.Writes)
	}
	fmt.Fprintln(w)
}
