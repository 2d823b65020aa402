package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/core"
	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/introspect"
	"oceanstore/internal/replica"
	"oceanstore/internal/simnet"
)

// runPrefetch prints E7: prefetcher hit rate vs noise fraction for
// model orders 0..3, on traces with embedded order-2 correlations.
func runPrefetch(w io.Writer, seed int64, _ *obsink) {
	fmt.Fprintln(w, "trace: repeating order-2 patterns (A,B -> C; X,B -> D) mixed with uniform noise")
	fmt.Fprintln(w, "metric: top-1 prediction hit rate (400-access traces, 40-access warmup)")
	fmt.Fprintln(w)
	A, B, C, D, X := gg(1), gg(2), gg(3), gg(4), gg(5)
	fmt.Fprintf(w, "%-8s %-10s %-10s %-10s %-10s\n", "noise", "order-0", "order-1", "order-2", "order-3")
	for _, noise := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		r := rand.New(rand.NewSource(seed))
		var trace []guid.GUID
		for len(trace) < 400 {
			if r.Float64() < noise {
				trace = append(trace, gg(byte(50+r.Intn(150))))
				continue
			}
			if r.Float64() < 0.5 {
				trace = append(trace, A, B, C)
			} else {
				trace = append(trace, X, B, D)
			}
		}
		fmt.Fprintf(w, "%-8.1f", noise)
		for order := 0; order <= 3; order++ {
			rate := introspect.HitRate(introspect.NewPrefetcher(order), trace, 1, 40)
			fmt.Fprintf(w, " %-10.3f", rate)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\npaper (§5): \"the method correctly captured high-order correlations, even in the")
	fmt.Fprintln(w, "presence of noise\" — order>=2 models dominate order-0/1 and degrade gracefully")
}

func gg(b byte) guid.GUID { return guid.FromData([]byte{b}) }

// e10Host places one object's floating replicas on the E10 pool for the
// introspective controller: promotion fills nodes e10FirstNode,
// e10FirstNode+1, ... and demotion retires the most recently placed one.
type e10Host struct {
	p    *core.Pool
	obj  guid.GUID
	ring *replica.Ring
}

const (
	e10FirstNode = 4  // nodes 0–3 are the primary tier
	e10NodeLimit = 28 // placement budget: nodes 4–27
)

func (h e10Host) NumObjects() int  { return 1 }
func (h e10Host) Replicas(int) int { return h.ring.SecondaryCount() }

func (h e10Host) Promote(int) bool {
	node := e10FirstNode + h.ring.SecondaryCount()
	return node < e10NodeLimit && h.p.AddReplica(h.obj, simnet.NodeID(node)) == nil
}

func (h e10Host) Demote(int) bool {
	node := e10FirstNode + h.ring.SecondaryCount() - 1
	return node >= e10FirstNode && h.p.RemoveReplica(h.obj, simnet.NodeID(node)) == nil
}

// e10Row is one controller epoch of the E10 table.
type e10Row struct {
	round, load, replicas int
	meanReadLatency       time.Duration
}

// e10Config is the policy E10 runs: promote above 50 reads per epoch per
// replica, demote below 5, no smoothing (each round's load is the
// signal), one epoch of cooldown after every change.
var e10Config = introspect.ControllerConfig{
	Alpha: 1, PromoteAbove: 50, DemoteBelow: 5,
	MinReplicas: 1, MaxReplicas: 8, CooldownEpochs: 1,
}

// replicaMgmtRows runs E10: one object read 200 times per epoch for ten
// epochs, then once per epoch for six, with introspect.Controller —
// the policy every soak runs — deciding each epoch whether the object
// gains or sheds a floating replica.
func replicaMgmtRows(seed int64) []e10Row {
	cfg := core.DefaultPoolConfig()
	cfg.Nodes = 48
	cfg.Ring.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	p := core.NewPool(seed, cfg)
	owner := p.NewClient(47, crypt.NewSigner(p.K.Rand()))
	obj, err := owner.Create("hot-object", []byte("content"))
	if err != nil {
		panic(err)
	}
	ring, _ := p.Ring(obj)

	// Reader clients scattered across the pool.
	var readers []*core.Client
	for i := 30; i < 44; i++ {
		c := p.NewClient(simnet.NodeID(i), crypt.NewSigner(p.K.Rand()))
		owner.GrantRead(obj, c)
		readers = append(readers, c)
	}
	meanReadLatency := func() time.Duration {
		var sum time.Duration
		for _, c := range readers {
			// Latency to the closest replica that could serve the read.
			best := p.Net.Latency(c.Node, 0)
			for _, sec := range ring.Secondaries() {
				if l := p.Net.Latency(c.Node, sec.Node); l < best {
					best = l
				}
			}
			sum += best
		}
		return sum / time.Duration(len(readers))
	}

	ctrl := introspect.NewController(e10Config, e10Host{p, obj, ring})
	var rows []e10Row
	for round := 0; round < 16; round++ {
		load := 200 // hot phase
		if round >= 10 {
			load = 1 // load fades
		}
		for i := 0; i < load; i++ {
			ctrl.ObserveRead(0)
		}
		ctrl.Tick()
		p.Run(5 * time.Second)
		rows = append(rows, e10Row{round, load, ring.SecondaryCount(), meanReadLatency()})
	}
	return rows
}

// runReplicaMgmt prints E10: a hot object gains floating replicas near
// its clients, dropping read latency; when load fades, replicas retire.
func runReplicaMgmt(w io.Writer, seed int64, _ *obsink) {
	fmt.Fprintf(w, "%-8s %-10s %-10s %-16s\n", "round", "load", "replicas", "mean read lat")
	for _, r := range replicaMgmtRows(seed) {
		fmt.Fprintf(w, "%-8d %-10d %-10d %-16v\n", r.round, r.load, r.replicas, r.meanReadLatency)
	}
	fmt.Fprintln(w, "\npaper (§4.7.2): overloaded replicas request assistance and parents create")
	fmt.Fprintln(w, "additional floating replicas nearby; disused replicas are eliminated")
}
