package main

import (
	"fmt"
	"io"
	"time"

	"oceanstore/internal/byz"
	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/par"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// tier builds a primary tier of n replicas plus one client at uniform
// 100 ms links — the paper's §4.4.5 setting.
func tier(n, f int, seed int64) (*sim.Kernel, *simnet.Network, *byz.Group, simnet.NodeID) {
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{BaseLatency: 100 * time.Millisecond})
	var nodes []simnet.NodeID
	for i := 0; i < n; i++ {
		nodes = append(nodes, net.AddNode(0, 0).ID)
	}
	client := net.AddNode(0, 0).ID
	g, err := byz.NewGroup(net, nodes, f, guid.Zero)
	if err != nil {
		panic(err)
	}
	return k, net, g, client
}

// measureCost runs one update of u bytes through an (m,n) tier and
// returns total bytes sent.
func measureCost(m, n, u int, seed int64) int64 {
	k, net, g, client := tier(n, m, seed)
	net.ResetStats()
	done := false
	g.Submit(client, byz.Request{ID: guid.FromData([]byte(fmt.Sprint(u, seed))), Payload: "u", Size: u},
		func(byz.Result) { done = true })
	k.RunFor(20 * time.Second)
	if !done {
		panic(fmt.Sprintf("fig6: update u=%d n=%d did not commit", u, n))
	}
	return net.Stats().BytesSent
}

// analyticCost is the paper's Figure 6 model b = c1·n² + (u+c2)·n + c3,
// with our protocol's constants: the n-1 backups each send n-1
// CSmall prepares, all n replicas each send n-1 CSmall commits, the
// pre-prepare ships u+CHeader to n-1 replicas, the client sends
// u+CHeader once plus n-1 digests, and n replicas reply with a signed
// CReply.
func analyticCost(n, u int) float64 {
	nn := float64(n)
	uu := float64(u)
	prepares := (nn - 1) * (nn - 1) * byz.CSmall       // backups -> tier
	commits := nn * (nn - 1) * byz.CSmall              // every replica -> tier
	preprepare := (uu + byz.CHeader) * (nn - 1)        // primary fan-out
	request := (uu + byz.CHeader) + (nn-1)*byz.CSmall  // client -> tier
	replies := nn * (byz.CReply + crypt.SignatureSize) // tier -> client
	return prepares + commits + preprepare + request + replies
}

// runFig6 prints the Figure 6 series: normalized cost (bytes / (u·n))
// for the paper's three tiers, both from the analytic model and as
// measured from the simulated protocol.
func runFig6(w io.Writer, seed int64, _ *obsink) {
	sizes := []int{100, 400, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 100 << 10, 256 << 10, 1 << 20, 10 << 20}
	tiers := [][2]int{{2, 7}, {3, 10}, {4, 13}}
	// Every (size, tier) cell is an independent simulation with its own
	// kernel; measure the whole grid on the fork-join pool and print in
	// grid order afterwards, so the table is identical at any core count.
	measured := par.Map(len(sizes)*len(tiers), func(i int) int64 {
		u, t := sizes[i/len(tiers)], tiers[i%len(tiers)]
		return measureCost(t[0], t[1], u, seed)
	})
	fmt.Fprintf(w, "%-10s", "u(bytes)")
	for _, t := range tiers {
		fmt.Fprintf(w, " | m=%d,n=%-2d analytic measured", t[0], t[1])
	}
	fmt.Fprintln(w)
	for i, u := range sizes {
		fmt.Fprintf(w, "%-10d", u)
		for j, t := range tiers {
			n := t[1]
			an := analyticCost(n, u) / float64(u*n)
			me := float64(measured[i*len(tiers)+j]) / float64(u*n)
			fmt.Fprintf(w, " |       %8.3f %8.3f", an, me)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\npaper check (m=4, n=13): normalized cost ~2 near 4kB, approaching 1 by ~100kB+")
	checks := []int{4 << 10, 100 << 10}
	checked := par.Map(len(checks), func(i int) int64 {
		return measureCost(4, 13, checks[i], seed)
	})
	for i, u := range checks {
		fmt.Fprintf(w, "  u=%-8d measured normalized cost = %.3f\n", u, float64(checked[i])/float64(u*13))
	}
}

// runLatency prints E2: commit latency for the paper's tiers under
// uniform 100 ms message latency; the paper estimates <1 s.
func runLatency(w io.Writer, seed int64, ob *obsink) {
	fmt.Fprintf(w, "%-10s %-8s %-12s %s\n", "tier", "faults", "latency", "under 1s?")
	for _, t := range [][2]int{{2, 7}, {3, 10}, {4, 13}} {
		m, n := t[0], t[1]
		k, net, g, client := tier(n, m, seed)
		// The three tiers run serially, so they can share one sink: the
		// byz/simnet counters aggregate across tiers deterministically.
		net.Instrument(ob.registry(), ob.tracer())
		g.Instrument(ob.registry(), ob.tracer())
		var lat time.Duration
		g.Submit(client, byz.Request{ID: guid.FromData([]byte("lat")), Payload: "u", Size: 4096},
			func(r byz.Result) { lat = r.Latency })
		k.RunFor(20 * time.Second)
		fmt.Fprintf(w, "n=%-8d %-8d %-12v %v\n", n, m, lat, lat < time.Second)
	}
	fmt.Fprintln(w, "\npaper: \"six phases of messages ... approximate latency per update of less than a second\"")
}
