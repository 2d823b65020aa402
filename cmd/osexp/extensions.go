package main

import (
	"fmt"
	"io"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/core"
	"oceanstore/internal/crypt"
	"oceanstore/internal/dtree"
	"oceanstore/internal/guid"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// runTwoTier shows §4.3's combined mechanism on a live pool: the
// fraction of queries the fast probabilistic tier satisfies as filter
// depth grows, and the global mesh catching everything else.
func runTwoTier(w io.Writer, seed int64, _ *obsink) {
	fmt.Fprintf(w, "%-6s %-14s %-14s %-14s\n", "depth", "probabilistic", "global", "state/node")
	for _, depth := range []int{1, 2, 3, 4} {
		cfg := core.DefaultPoolConfig()
		cfg.Nodes = 64
		cfg.Ring.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
		p := core.NewPool(seed, cfg)
		tt := p.EnableTwoTier(depth)

		owner := p.NewClient(63, crypt.NewSigner(p.K.Rand()))
		var objs []guid.GUID
		for i := 0; i < 8; i++ {
			obj, err := owner.Create(fmt.Sprintf("obj-%d", i), []byte("x"))
			if err != nil {
				panic(err)
			}
			objs = append(objs, obj)
		}
		prob, glob := 0, 0
		for q := 0; q < 300; q++ {
			from := simnet.NodeID(p.K.Rand().Intn(62))
			obj := objs[p.K.Rand().Intn(len(objs))]
			res, err := tt.Locate(from, obj)
			if err != nil {
				panic(err)
			}
			if res.Probabilistic {
				prob++
			} else {
				glob++
			}
		}
		fmt.Fprintf(w, "%-6d %3d/300 %8s %3d/300 %8s %6d B\n", depth, prob, "", glob, "", tt.ProbabilisticStateBytes(5))
	}
	fmt.Fprintln(w, "\npaper (§4.3): a fast probabilistic algorithm finds nearby objects; misses fall")
	fmt.Fprintln(w, "through to the slower, deterministic global algorithm")
}

// runFanout is the dissemination-tree ablation: fanout trades tree
// depth (delivery latency at the leaves) against per-node send load.
func runFanout(w io.Writer, seed int64, _ *obsink) {
	fmt.Fprintf(w, "%-8s %-10s %-16s %-14s\n", "fanout", "max depth", "full-tree time", "root sends")
	for _, fanout := range []int{2, 4, 8, 16} {
		k := sim.NewKernel(seed)
		net := simnet.New(k, simnet.Config{BaseLatency: 20 * time.Millisecond, LatencyPerUnit: time.Millisecond})
		net.AddRandomNodes(200, 50, 1)
		tr := dtree.New(net, 0, fanout)
		for i := 1; i < 200; i++ {
			if err := tr.Join(simnet.NodeID(i)); err != nil {
				panic(err)
			}
		}
		start := k.Now()
		var last time.Duration
		reached := 0
		tr.OnDeliver(func(n simnet.NodeID, d dtree.Delivery) {
			reached++
			last = k.Now() - start
		})
		net.ResetStats()
		tr.Push(dtree.Delivery{Payload: "u", Size: 4096})
		k.RunFor(time.Minute)
		maxDepth := 0
		for i := 0; i < 200; i++ {
			if d := tr.Depth(simnet.NodeID(i)); d > maxDepth {
				maxDepth = d
			}
		}
		rootSends := 0
		for i := 1; i < 200; i++ {
			if pnt, _ := tr.Parent(simnet.NodeID(i)); pnt == 0 {
				rootSends++
			}
		}
		fmt.Fprintf(w, "%-8d %-10d %-16v %-14d\n", fanout, maxDepth, last, rootSends)
		if reached != 200 {
			panic("incomplete dissemination")
		}
	}
	fmt.Fprintln(w, "\nablation: higher fanout flattens the tree (faster leaves) but concentrates")
	fmt.Fprintln(w, "send load at inner nodes — the tradeoff dissemination trees balance (§4.4.3)")
}
