package fault

import (
	"fmt"
	"time"

	"oceanstore/internal/simnet"
)

// This file holds the canned fault schedules the seed-swept invariant
// harness runs (invariant_test.go here, chaos_test.go at the repo
// root).  They are exported so experiments and examples can reuse the
// same vocabulary of failure.
//
// The plans are functions of the node count alone.  Churn and cuts
// target the middle of the node range: secondary replicas, archival
// holders, and routing infrastructure — the untrusted bulk of the
// system the paper says must be survivable.  Primary tiers are runs of
// core's locality order, so which IDs they hold depends on the seed,
// and a plan may disturb any number of one object's primaries; the
// harness invariants hold either way, with writes stalling while a
// tier has no quorum.

// midRange returns k node IDs spread through [lo, hi).
func midRange(lo, hi, k int) []simnet.NodeID {
	if hi-lo < k {
		k = hi - lo
	}
	if k <= 0 {
		return nil
	}
	out := make([]simnet.NodeID, 0, k)
	step := (hi - lo) / k
	if step == 0 {
		step = 1
	}
	for i := 0; i < k; i++ {
		out = append(out, simnet.NodeID(lo+i*step))
	}
	return out
}

// DropPlan is uniform per-link message loss.
func DropPlan(prob float64) Plan {
	return *NewPlan(fmt.Sprintf("drop-%.0f%%", prob*100)).Drop(prob)
}

// JitterPlan is loss plus WAN degradation: fixed extra delay and
// uniform jitter on every link.
func JitterPlan(prob float64, delay, jitter time.Duration) Plan {
	return *NewPlan("lossy-jitter").Drop(prob).Jitter(delay, jitter)
}

// PartitionPlan splits a quarter of the nodes (starting at n/2) into
// their own group for the window [at, heal).
func PartitionPlan(n int, at, heal time.Duration) Plan {
	cut := midRange(n/2, n/2+n/4, n/4)
	return *NewPlan("partition-heal").PartitionWindow(cut, 1, at, heal)
}

// ChurnPlan staggers crash/recover cycles over k mid-range nodes.
func ChurnPlan(n, k int, start, stagger, downFor time.Duration) Plan {
	victims := midRange(4, n-1, k)
	p := NewPlan(fmt.Sprintf("churn-%d", k)).ChurnNodes(victims, start, stagger, downFor)
	return *p
}

// DemoChaosPlan is the headline schedule: 10% per-link drop for the
// whole run, one partition that cuts off an eighth of the nodes for
// 50 virtual seconds, and a staggered 5-node churn wave.  Reads and
// updates must still complete — via retries — under this plan.
func DemoChaosPlan(n int) Plan {
	p := NewPlan("demo-chaos").Drop(0.10)
	cut := midRange(n/2, n/2+n/8+1, n/8)
	p.Partitions = append(p.Partitions, PartitionEvent{At: 30 * time.Second, Groups: groupsOf(cut, 1)})
	p.Partitions = append(p.Partitions, PartitionEvent{At: 80 * time.Second})
	p.ChurnNodes(midRange(4, n/2, 5), 20*time.Second, 15*time.Second, 20*time.Second)
	return *p
}

func groupsOf(nodes []simnet.NodeID, group int) map[simnet.NodeID]int {
	m := make(map[simnet.NodeID]int, len(nodes))
	for _, nd := range nodes {
		m[nd] = group
	}
	return m
}

// StandardPlans is the schedule matrix the invariant harness sweeps:
// every plan crossed with every seed.  n is the pool size (≥ 16).
func StandardPlans(n int) []Plan {
	return []Plan{
		DropPlan(0.10),
		JitterPlan(0.05, 20*time.Millisecond, 30*time.Millisecond),
		PartitionPlan(n, 30*time.Second, 90*time.Second),
		ChurnPlan(n, 5, 20*time.Second, 15*time.Second, 20*time.Second),
		DemoChaosPlan(n),
	}
}
