package obs

import (
	"io"
	"slices"
	"strconv"
	"testing"
)

// scale100k fills a registry with the entities the benchmark's
// scale-100k workload counts: a bytes and a drops count per live link,
// with the fan-in skew of a run whose clients hear from many primaries;
// seven counts per hosting node on a fifth of the nodes; and the
// node-wide rest.  The link counts are kept outside the registry and
// served the way simnet serves them: two families, link_bytes and
// link_drops, each read through one Source over every link, keyed by
// its packed (to, from) key.  The per-host counts are served the way
// epidemic's tally serves them.  A dump rolls
// each per-entity family into a total and a summary.
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
	to := make([]int, dests)
	for d := range to {
		to[d] = next(nodes)
	}
	bytes := make(map[uint64]int64)
	for i := 0; i < links; i++ {
		// Two thirds of the links go into the busiest 1024 destinations.
		d := next(dests)
		if i%3 != 0 {
			d = next(1024)
		}
		bytes[uint64(to[d])<<32|uint64(next(nodes))] += int64(i)
	}
	var store linkStore
	for k := range bytes {
		store.keys = append(store.keys, k)
	}
	slices.Sort(store.keys)
	store.bytes = make([]int64, len(store.keys))
	store.drops = make([]int64, len(store.keys))
	for i, k := range store.keys {
		store.bytes[i] = bytes[k]
	}
	r.CounterSource("simnet", "link_bytes", allLinks{&store, false})
	r.CounterSource("simnet", "link_drops", allLinks{&store, true})
	hosts := hostCounts{slots: make([]*[7]int64, nodes)}
	for i := 0; i < replicas; i++ {
		slot := &hosts.slots[next(nodes)]
		if *slot == nil {
			*slot = new([7]int64)
		}
		(*slot)[i%7]++
	}
	for c, name := range []string{"tentative", "commits", "aborts", "dup_commits", "replays", "expired", "checkpoints"} {
		hosts.c = c
		r.CounterSource("epidemic", name, hosts)
	}
	for i := 0; i < 40; i++ {
		r.Counter("byz", "c"+strconv.Itoa(i)).Add(int64(i))
	}
	for i := 0; i < 5; i++ {
		r.Histogram("workload", "h"+strconv.Itoa(i)).Observe(int64(1) << (4 * i))
	}
	r.GaugeSource("introspect", "tier", Value(func() int64 { return 3 }))
	return r
}

// hostCounts is scale100k's stand-in for epidemic's tally: seven counts
// per hosting node in a node-indexed slice, nil where no replica is
// hosted, served one count per source.
type hostCounts struct {
	slots []*[7]int64
	c     int // which count this source serves
}

func (h hostCounts) Each(visit func(node int, v int64)) {
	for node, slot := range h.slots {
		if slot != nil {
			visit(node, slot[h.c])
		}
	}
}

// linkStore is scale100k's stand-in for simnet's link table: every
// link's (to, from) key, sorted, beside its counts.
type linkStore struct {
	keys         []uint64
	bytes, drops []int64
}

// allLinks serves every link of a linkStore, keyed by its packed key.
type allLinks struct {
	s     *linkStore
	drops bool
}

func (l allLinks) Each(visit func(link int, v int64)) {
	vals := l.s.bytes
	if l.drops {
		vals = l.s.drops
	}
	for i, k := range l.s.keys {
		visit(int(k), vals[i])
	}
}

// BenchmarkSnapshotWrite600k is the dump as scale-100k pays for it: one
// Snapshot for the counts, one WriteBench for the file, over ≈ 600 000
// per-entity counts that roll into a few dozen series.  The registry
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
