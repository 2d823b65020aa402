package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/par"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// runReliability prints E3: the paper's §4.5 availability numbers —
// two-way replication vs rate-1/2 fragmentation at 10% machine
// downtime, closed form and Monte Carlo.
func runReliability(w io.Writer, seed int64, _ *obsink) {
	rng := rand.New(rand.NewSource(seed))
	const p = 0.1
	fmt.Fprintf(w, "machine downtime: %.0f%% (paper: \"a million machines, ten percent of which are currently down\")\n\n", p*100)
	fmt.Fprintf(w, "%-34s %-14s %-12s %-10s\n", "scheme", "P(available)", "monte-carlo", "nines")

	repl := archive.ReplicationAvailability(2, p)
	fmt.Fprintf(w, "%-34s %-14.9f %-12s %-10.2f\n", "2-way replication (same storage)", repl, "-", archive.Nines(repl))

	for _, f := range []int{16, 32, 64} {
		closed := archive.Availability(f, f/2, p)
		mc := archive.AvailabilityMonteCarlo(f, f/2, p, 200000, rng)
		fmt.Fprintf(w, "rate-1/2 erasure, %-3d fragments    %-14.9f %-12.6f %-10.2f\n", f, closed, mc, archive.Nines(closed))
	}
	p16 := archive.Availability(16, 8, p)
	p32 := archive.Availability(32, 16, p)
	fmt.Fprintf(w, "\nunavailability improvement 16 -> 32 fragments: %.0fx (paper: \"another factor of 4000\")\n",
		(1-p16)/(1-p32))
	fmt.Fprintf(w, "paper: replication gives two nines (0.99); 16 fragments give over five nines (0.999994)\n")
}

// runFragments prints E6: reconstruction success and latency vs the
// number of extra fragments requested, under request drop rates.
func runFragments(w io.Writer, seed int64, ob *obsink) {
	const trials = 20
	drops := []float64{0, 0.05, 0.1, 0.2}
	extras := []int{0, 4, 8, 16}
	fmt.Fprintf(w, "archive: rate-1/2, 32 fragments (need 16); per-message drop probability sweep\n\n")
	fmt.Fprintf(w, "%-8s %-8s %-12s %-14s\n", "dropP", "extra", "success", "mean latency")
	// Each (drop, extra, trial) cell is one independent simulation.
	// Flatten the whole grid onto the fork-join pool and aggregate per
	// (drop, extra) afterwards in grid order — the printed table is
	// byte-identical to the serial triple loop at any core count.
	type cell struct {
		ok  bool
		lat time.Duration
		ob  *obsink
	}
	cells := par.Map(len(drops)*len(extras)*trials, func(i int) cell {
		drop := drops[i/(len(extras)*trials)]
		extra := extras[(i/trials)%len(extras)]
		trial := i % trials
		k := sim.NewKernel(seed + int64(trial))
		net := simnet.New(k, simnet.Config{
			BaseLatency:    20 * time.Millisecond,
			LatencyPerUnit: time.Millisecond,
			DropProb:       drop,
		})
		nodes := net.AddRandomNodes(48, 50, 6)
		svc := archive.NewService(net, nodes)
		// Cells run concurrently: each collects into its own sub-sink,
		// merged back below in grid order so dumps are procs-invariant.
		sub := ob.sub()
		net.Instrument(sub.registry(), sub.tracer())
		svc.Instrument(sub.registry(), sub.tracer())
		data := make([]byte, 8192)
		rand.New(rand.NewSource(int64(trial))).Read(data)
		root, err := svc.Archive(data, archive.Config{DataShards: 16, TotalFragments: 32}, nil)
		if err != nil {
			panic(err)
		}
		var out cell
		svc.Retrieve(0, root, extra, 5*time.Second, func(d []byte, err error, l time.Duration) {
			if err == nil && bytes.Equal(d, data) {
				out = cell{ok: true, lat: l}
			}
		})
		k.RunFor(10 * time.Second)
		out.ob = sub
		return out
	})
	for _, c := range cells {
		ob.merge(c.ob)
	}
	for di := range drops {
		for ei := range extras {
			ok := 0
			var latSum time.Duration
			for trial := 0; trial < trials; trial++ {
				if c := cells[(di*len(extras)+ei)*trials+trial]; c.ok {
					ok++
					latSum += c.lat
				}
			}
			mean := time.Duration(0)
			if ok > 0 {
				mean = latSum / time.Duration(ok)
			}
			fmt.Fprintf(w, "%-8.2f %-8d %2d/%-9d %-14v\n", drops[di], extras[ei], ok, trials, mean)
		}
	}
	fmt.Fprintln(w, "\npaper: \"issuing requests for extra fragments proved beneficial due to dropped requests\"")
}
