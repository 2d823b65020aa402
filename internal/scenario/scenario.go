// Package scenario is the adversarial proving ground for the audit
// layer: a catalogue of seeded attacks — bit rot, Byzantine stores,
// partitions, correlated AZ loss, churn, audit-protocol amplification,
// replica tampering — each paired with the defense that contains it
// and an invariant that HOLDS with the defense armed and BREAKS with
// it off.  The paired runs are the point: a defense whose absence
// changes nothing defends nothing.
//
// Every scenario is a pure function of (seed, defense flag): worlds
// are built on fresh kernels, all randomness flows from the seed, and
// checks read the layers' plain Stats, never an obs registry: Stats
// exist with no registry attached (Options.Reg is optional), and a
// registry only reads them.
package scenario

import (
	"fmt"
	"time"

	"oceanstore/internal/obs"
)

// Options configures one scenario execution.
type Options struct {
	// Seed drives the whole run.
	Seed int64
	// Defense arms the scenario's defense (the shipping configuration).
	// False switches off exactly the defense under test — the auditor
	// itself, or one of its Disable* knobs — to demonstrate the
	// invariant fails without it.
	Defense bool
	// AuditInterval overrides the suite's default audit cadence (one
	// poll round per minute) in the scenarios that use it — the knob
	// behind the detection-latency-vs-audit-rate sweep.  Zero keeps the
	// default.
	AuditInterval time.Duration
	// Reg, if non-nil, instruments the run's network and auditor.
	Reg *obs.Registry
	// Tracer, if non-nil, receives the run's trace events.
	Tracer *obs.Tracer
}

// Metric is one named result value; results carry ordered slices so
// reports print deterministically.
type Metric struct {
	Name  string
	Value int64
}

// Result is one scenario execution's outcome.
type Result struct {
	Scenario string
	Defense  string // the defense (or knob) this scenario proves
	Seed     int64
	Armed    bool
	// Violations lists broken invariants; empty means the run passed.
	Violations []string
	Metrics    []Metric
}

// Pass reports whether every invariant held.
func (r *Result) Pass() bool { return len(r.Violations) == 0 }

// violate records a broken invariant.
func (r *Result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// metric appends a report value.
func (r *Result) metric(name string, v int64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v})
}

// Scenario is one catalogue entry.
type Scenario struct {
	Name string
	// Desc is the attack in one line.
	Desc string
	// Defense names what contains the attack — the knob the paired
	// disabled run switches off.
	Defense string
	Run     func(o Options) Result
}

// Catalogue lists every adversarial scenario, in suite order.
func Catalogue() []Scenario {
	return []Scenario{
		{
			Name:    "bitrot-drizzle",
			Desc:    "background bit rot slowly corrupts stored fragments",
			Defense: "auditor (sampled self-checks and peer polls)",
			Run:     runBitRotDrizzle,
		},
		{
			Name:    "byz-minority",
			Desc:    "a minority of stores serves plausible garbage while claiming health",
			Defense: "reputation (proven-bad votes cost trust, suspects excluded)",
			Run:     runByzMinority,
		},
		{
			Name:    "partition-heal-storm",
			Desc:    "a long partition starves polls, then heals",
			Defense: "exponential backoff on inconclusive polls",
			Run:     runPartitionHealStorm,
		},
		{
			Name:    "az-loss",
			Desc:    "one administrative domain crashes and returns with blank disks",
			Defense: "auditor (missing-fragment votes trigger re-dispersal)",
			Run:     runAZLoss,
		},
		{
			Name:    "churn-during-audit",
			Desc:    "staggered churn and bit rot while audits run on a full deployment",
			Defense: "auditor (and its refusal to confuse downtime with damage)",
			Run:     runChurnDuringAudit,
		},
		{
			Name:    "audit-amplification",
			Desc:    "attackers flood forged audit polls to turn the protocol into a weapon",
			Defense: "per-interval vote budgets (responder-side rate limit)",
			Run:     runAuditAmplification,
		},
		{
			Name:    "replica-tamper",
			Desc:    "untrusted servers silently corrupt secondary replica state",
			Defense: "replica auditor (committed-state digest sampling)",
			Run:     runReplicaTamper,
		},
		{
			Name:    "flash-crowd",
			Desc:    "ninety percent of reads slam one object and saturate its static replicas",
			Defense: "introspection (read-heat promotion of floating replicas)",
			Run:     runFlashCrowd,
		},
	}
}

// Find returns the named scenario.
func Find(name string) (Scenario, bool) {
	for _, s := range Catalogue() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
