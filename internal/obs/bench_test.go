package obs

import (
	"io"
	"slices"
	"strconv"
	"testing"
)

// scale100k fills a registry with the family shape the benchmark's
// scale-100k workload dumps (seed 1: 616 753 series in 31 572
// families): a bytes and a drops counter per live link, named for the
// destination and keyed by the source, with the fan-in skew of a run
// whose clients hear from many primaries; seven counts per hosting node
// on a fifth of the nodes; and the node-wide rest.  The link counts are
// kept outside the registry and served the way simnet serves them:
// the families registered by an OnRead hook that sorts the links'
// packed (to, from) keys once, each read through a Source over the
// destination's run of keys.  The per-host counts are served the way
// epidemic's tally serves them.
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
	r.OnRead(func() {
		if store.keys != nil {
			return
		}
		for k := range bytes {
			store.keys = append(store.keys, k)
		}
		slices.Sort(store.keys)
		store.bytes = make([]int64, len(store.keys))
		store.drops = make([]int64, len(store.keys))
		for i, k := range store.keys {
			store.bytes[i] = bytes[k]
			if i == 0 || store.keys[i-1]>>32 != k>>32 {
				name := "link_n" + strconv.Itoa(int(k>>32))
				r.CounterSource("simnet", name+"_bytes", linksInto{&store, k >> 32, false})
				r.CounterSource("simnet", name+"_drops", linksInto{&store, k >> 32, true})
			}
		}
	})
	hosts := hostCounts{slots: make([]*[7]int64, nodes)}
	for i := 0; i < replicas; i++ {
		slot := &hosts.slots[next(nodes)]
		if *slot == nil {
			*slot = new([7]int64)
			hosts.n++
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
	n, c  int // hosting nodes; which count this source serves
}

func (h hostCounts) Len() int { return h.n }

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

// linksInto serves one destination's links from a linkStore.
type linksInto struct {
	s     *linkStore
	dest  uint64
	drops bool
}

func (l linksInto) span() (int, int) {
	i, _ := slices.BinarySearch(l.s.keys, l.dest<<32)
	j, _ := slices.BinarySearch(l.s.keys, (l.dest+1)<<32)
	return i, j
}

func (l linksInto) Len() int {
	i, j := l.span()
	return j - i
}

func (l linksInto) Each(visit func(node int, v int64)) {
	vals := l.s.bytes
	if l.drops {
		vals = l.s.drops
	}
	i, j := l.span()
	for ; i < j; i++ {
		visit(int(uint32(l.s.keys[i])), vals[i])
	}
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
