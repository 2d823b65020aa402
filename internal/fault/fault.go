// Package fault is a deterministic fault-schedule engine for the
// simulated network.
//
// The paper's availability story (§4.3.3 routing redundancy, §4.4
// Byzantine primary tier, §5 archival durability) is a claim about
// behaviour *under faults*, so reproducing it needs faults that are
// richer than a global drop probability yet exactly repeatable.  A
// Plan is a declarative schedule of three fault classes:
//
//   - LinkRules: per-link message loss, fixed delay, and jitter,
//     optionally filtered by endpoints, message kind, and a time
//     window — WAN degradation, flaky peerings, slow paths;
//   - ChurnEvents: timed node crashes and recoveries — server churn,
//     the "constant flux" of §1's untrusted infrastructure;
//   - PartitionEvents: scheduled partition/heal transitions — network
//     splits between administrative domains.
//
// Install compiles a Plan onto a simnet.Network: churn and partitions
// become kernel events at their scheduled virtual times, and link
// rules are evaluated per message through the network's FaultPlan
// hook.  All randomness (drop coins, jitter) is drawn from the sim
// kernel's seeded source, so a (seed, plan) pair reproduces the same
// run byte for byte — the property the seed-swept invariant harness
// (invariant_test.go, chaos_test.go) relies on.
package fault

import (
	"time"

	"oceanstore/internal/simnet"
)

// LinkRule applies loss and delay to matching messages.  Zero-valued
// selectors match everything: nil From/To match any endpoint, nil
// Kinds match every message class, and a zero window is always active.
type LinkRule struct {
	// Name labels the rule in diagnostics.
	Name string
	// From and To restrict the rule to messages between the listed
	// endpoints (nil = any).
	From, To []simnet.NodeID
	// Kinds restricts the rule to the listed message classes (nil =
	// all) — e.g. degrade only "arch-frag" traffic to starve archival
	// retrieval while agreement runs clean.
	Kinds []string
	// DropProb drops a matching message with this probability.
	DropProb float64
	// Delay adds a fixed latency to matching messages.
	Delay time.Duration
	// Jitter adds a uniform random latency in [0, Jitter).
	Jitter time.Duration
	// Start and End bound the rule's active window in virtual time;
	// zero End means forever.
	Start, End time.Duration
}

// matches reports whether the rule applies to m at virtual time now.
func (r *LinkRule) matches(m simnet.Message, now time.Duration) bool {
	if now < r.Start || (r.End > 0 && now >= r.End) {
		return false
	}
	if r.From != nil && !containsNode(r.From, m.From) {
		return false
	}
	if r.To != nil && !containsNode(r.To, m.To) {
		return false
	}
	if r.Kinds != nil && !containsKind(r.Kinds, m.Kind) {
		return false
	}
	return true
}

func containsNode(xs []simnet.NodeID, x simnet.NodeID) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsKind(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// ChurnEvent is a timed liveness transition.
type ChurnEvent struct {
	At   time.Duration
	Node simnet.NodeID
	// Up true recovers the node; false crashes it.
	Up bool
}

// PartitionEvent reassigns partition groups at a virtual time.  A nil
// Groups map heals all partitions.
type PartitionEvent struct {
	At time.Duration
	// Groups maps nodes to partition groups; unlisted nodes keep their
	// current group.  Nil heals everything.
	Groups map[simnet.NodeID]int
}

// Plan is a complete declarative fault schedule.
type Plan struct {
	Name       string
	Links      []LinkRule
	Churn      []ChurnEvent
	Partitions []PartitionEvent
	// Data lists data-plane faults (bit rot, Byzantine stores, disk
	// wipes); they act on a storage layer bound via Engine.BindData.
	Data []DataFault
}

// ---- Builders: the fluent surface tests and experiments use ----

// NewPlan starts an empty named plan.
func NewPlan(name string) *Plan { return &Plan{Name: name} }

// Drop adds a global loss rule: every message dropped with prob.
func (p *Plan) Drop(prob float64) *Plan {
	p.Links = append(p.Links, LinkRule{Name: "drop-all", DropProb: prob})
	return p
}

// Jitter adds a global delay-plus-jitter rule.
func (p *Plan) Jitter(delay, jitter time.Duration) *Plan {
	p.Links = append(p.Links, LinkRule{Name: "jitter", Delay: delay, Jitter: jitter})
	return p
}

// CrashWindow schedules node down from `from` until `until` (zero
// until = never recovers).
func (p *Plan) CrashWindow(node simnet.NodeID, from, until time.Duration) *Plan {
	p.Churn = append(p.Churn, ChurnEvent{At: from, Node: node})
	if until > 0 {
		p.Churn = append(p.Churn, ChurnEvent{At: until, Node: node, Up: true})
	}
	return p
}

// ChurnNodes staggers crash/recover cycles over the given nodes: node
// i goes down at start+i·stagger and recovers downFor later.
func (p *Plan) ChurnNodes(nodes []simnet.NodeID, start, stagger, downFor time.Duration) *Plan {
	for i, nd := range nodes {
		at := start + time.Duration(i)*stagger
		p.CrashWindow(nd, at, at+downFor)
	}
	return p
}

// PartitionWindow splits the listed nodes into their own group from
// `from` until `until`, then heals all partitions (zero until = never
// heals).
func (p *Plan) PartitionWindow(nodes []simnet.NodeID, group int, from, until time.Duration) *Plan {
	groups := make(map[simnet.NodeID]int, len(nodes))
	for _, nd := range nodes {
		groups[nd] = group
	}
	p.Partitions = append(p.Partitions, PartitionEvent{At: from, Groups: groups})
	if until > 0 {
		p.Partitions = append(p.Partitions, PartitionEvent{At: until})
	}
	return p
}
