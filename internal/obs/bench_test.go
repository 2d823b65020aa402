package obs

import (
	"io"
	"strconv"
	"testing"
)

// scale100k fills a registry with the family shape the benchmark's
// scale-100k workload dumps (seed 1: 616 753 series in 31 572
// families): a bytes and a drops counter per live link, named for the
// destination and keyed by the source, with the fan-in skew of a run
// whose clients hear from many primaries; seven per-replica counters on
// a fifth of the nodes; and the node-wide rest.
func scale100k() *Registry {
	const nodes, links, dests, replicas = 100_000, 237_000, 15_760, 20_456
	r := NewRegistry()
	x := uint64(1)
	next := func(n int) int { // xorshift: any fixed scatter will do
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	type pair struct{ bytes, drops *CounterFamily }
	fams := make([]pair, dests)
	for d := range fams {
		to := strconv.Itoa(next(nodes))
		fams[d] = pair{r.CounterFamily("simnet", "link_n"+to+"_bytes"), r.CounterFamily("simnet", "link_n"+to+"_drops")}
	}
	for i := 0; i < links; i++ {
		// Two thirds of the links go into the busiest 1024 destinations.
		d := next(dests)
		if i%3 != 0 {
			d = next(1024)
		}
		from := next(nodes)
		fams[d].bytes.At(from).Add(int64(i))
		fams[d].drops.At(from)
	}
	for _, name := range []string{"tentative", "commits", "aborts", "dup_commits", "replays", "expired", "checkpoints"} {
		f := r.CounterFamily("epidemic", name)
		for i := 0; i < replicas; i++ {
			f.At(next(nodes)).Inc()
		}
	}
	for i := 0; i < 40; i++ {
		r.Counter(NodeWide, "byz", "c"+strconv.Itoa(i)).Add(int64(i))
	}
	for i := 0; i < 5; i++ {
		r.Histogram(NodeWide, "workload", "h"+strconv.Itoa(i)).Observe(int64(1) << (4 * i))
	}
	r.Gauge(NodeWide, "introspect", "tier").Set(0.5)
	return r
}

// BenchmarkSnapshotWrite600k is the dump as scale-100k pays for it: one
// Snapshot for the counts, one WriteBench for the file.  The registry
// is rebuilt per iteration, off the clock, so each dump orders series
// that arrive in creation order, as a run's do.
func BenchmarkSnapshotWrite600k(b *testing.B) {
	b.ReportAllocs()
	series := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := scale100k()
		b.StartTimer()
		series = len(r.Snapshot())
		if err := r.WriteBench(io.Discard, "Soak"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(series), "series")
}
