package fault

import (
	"math/rand"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/simnet"
)

// Data-plane faults.  Link rules, churn and partitions attack the
// *network*; the faults here attack the *data* — silently rotting
// stored fragments, turning stores Byzantine, and emptying disks — the
// adversary classes of §4.1 ("data be protected from unauthorized
// reads... substitution") that no amount of retransmission fixes.
// They act on a DataTarget rather than the network, so the engine
// stays ignorant of the archival layer's types.

// DataTarget is the surface a data fault needs from the storage layer.
// archive.Service implements it.
type DataTarget interface {
	// StoreNodes lists the nodes running fragment stores, in ID order.
	StoreNodes() []simnet.NodeID
	// CorruptRandom silently rots one random fragment on a node.
	CorruptRandom(id simnet.NodeID, rng *rand.Rand) (guid.GUID, bool)
	// SetByzantine turns wire-level lying on or off for a node.
	SetByzantine(id simnet.NodeID, on bool)
	// WipeNode drops every fragment a node holds; returns the count.
	WipeNode(id simnet.NodeID) int
	// TornWrite tears a fragment rewrite mid-record on a node's store
	// and runs crash recovery.  Returns whether a tear ran — false on
	// backends with no real write path for a crash to land in.
	TornWrite(id simnet.NodeID, rng *rand.Rand) bool
	// PartialFsync crashes a node's store before its pending fsync and
	// recovers without the unsynced tail; returns fragments lost.
	PartialFsync(id simnet.NodeID) int
}

// DataFaultKind selects a data-plane fault behaviour.
type DataFaultKind int

const (
	// DataBitRot corrupts random stored fragments: each tick, each
	// targeted node rots one fragment with probability Prob.
	DataBitRot DataFaultKind = iota
	// DataByzantine marks the targeted nodes as Byzantine for the
	// window — intact disks, garbage on the wire.
	DataByzantine
	// DataWipe empties the targeted nodes' stores at Start — the
	// correlated "AZ came back blank" disaster.
	DataWipe
	// DataTornWrite tears fragment writes mid-record: each tick, each
	// targeted node suffers a power-cut-shaped crash during an append
	// with probability Prob, followed by crash recovery.  Durable data
	// must survive every one of them.
	DataTornWrite
	// DataPartialFsync crashes the targeted nodes' stores at Start,
	// before their pending fsync — every record written since the last
	// sync is lost.  The disaster that punishes group-commit windows.
	DataPartialFsync
)

// DataFault schedules one data-plane fault.
type DataFault struct {
	Kind DataFaultKind
	// Nodes targets specific stores; nil targets every store node.
	Nodes []simnet.NodeID
	// Prob is the per-node per-tick corruption probability (DataBitRot).
	Prob float64
	// Every is the tick period for recurring faults (DataBitRot).
	Every time.Duration
	// Start and End bound the fault window; zero End means forever.
	Start, End time.Duration
}

// ---- Plan builders ----

// BitRot schedules a background corruption drizzle: from start to end,
// every `every`, each store node silently rots one random fragment with
// probability prob.  Nothing below the audit layer notices — retrieval
// just sees fewer verifying fragments.
func (p *Plan) BitRot(prob float64, every, start, end time.Duration) *Plan {
	p.Data = append(p.Data, DataFault{
		Kind: DataBitRot, Prob: prob, Every: every, Start: start, End: end,
	})
	return p
}

// ByzantineStore turns the listed stores Byzantine from start until end
// (zero end = forever): they keep acknowledging and serving, but every
// fragment they put on the wire fails verification.
func (p *Plan) ByzantineStore(nodes []simnet.NodeID, start, end time.Duration) *Plan {
	p.Data = append(p.Data, DataFault{
		Kind: DataByzantine, Nodes: nodes, Start: start, End: end,
	})
	return p
}

// DiskWipe empties the listed stores at the given time.
func (p *Plan) DiskWipe(nodes []simnet.NodeID, at time.Duration) *Plan {
	p.Data = append(p.Data, DataFault{Kind: DataWipe, Nodes: nodes, Start: at})
	return p
}

// TornWrites schedules a torn-write drizzle: from start to end, every
// `every`, each store node crashes mid-append with probability prob
// and recovers.  Only bites on real-I/O backends.
func (p *Plan) TornWrites(prob float64, every, start, end time.Duration) *Plan {
	p.Data = append(p.Data, DataFault{
		Kind: DataTornWrite, Prob: prob, Every: every, Start: start, End: end,
	})
	return p
}

// PartialFsyncAt crashes the listed stores at the given time, before
// their pending fsync: unsynced records are lost.  Nil nodes hits
// every store — the correlated power-loss disaster.
func (p *Plan) PartialFsyncAt(nodes []simnet.NodeID, at time.Duration) *Plan {
	p.Data = append(p.Data, DataFault{Kind: DataPartialFsync, Nodes: nodes, Start: at})
	return p
}

// CrashGroup crashes all listed nodes at the same instant — a
// correlated AZ-style failure rather than ChurnNodes' staggered one —
// recovering them together at until (zero = never).
func (p *Plan) CrashGroup(nodes []simnet.NodeID, from, until time.Duration) *Plan {
	for _, nd := range nodes {
		p.CrashWindow(nd, from, until)
	}
	return p
}

// ---- Engine binding ----

// BindData schedules the plan's data faults against a storage target.
// Separate from Install because the engine compiles plans for plain
// networks too; callers with an archival tier bind it explicitly.  All
// scheduled actions honour the engine's armed flag, so Uninstall stops
// future corruption (damage already done stays done, like churn).
func (e *Engine) BindData(target DataTarget) {
	for i := range e.plan.Data {
		df := e.plan.Data[i]
		switch df.Kind {
		case DataBitRot:
			e.scheduleRot(target, df)
		case DataByzantine:
			e.net.K.At(df.Start, func() {
				if !e.armed {
					return
				}
				for _, nd := range e.dataNodes(target, df) {
					target.SetByzantine(nd, true)
				}
			})
			if df.End > 0 {
				e.net.K.At(df.End, func() {
					if !e.armed {
						return
					}
					for _, nd := range e.dataNodes(target, df) {
						target.SetByzantine(nd, false)
					}
				})
			}
		case DataWipe:
			e.net.K.At(df.Start, func() {
				if !e.armed {
					return
				}
				for _, nd := range e.dataNodes(target, df) {
					n := target.WipeNode(nd)
					e.DataHits += n
					e.DataHitNodes[nd] += n
				}
			})
		case DataTornWrite:
			e.scheduleTears(target, df)
		case DataPartialFsync:
			e.net.K.At(df.Start, func() {
				if !e.armed {
					return
				}
				for _, nd := range e.dataNodes(target, df) {
					n := target.PartialFsync(nd)
					e.DataHits += n
					e.DataHitNodes[nd] += n
				}
			})
		}
	}
}

// scheduleRot arms the recurring bit-rot tick for one fault entry.
func (e *Engine) scheduleRot(target DataTarget, df DataFault) {
	every := df.Every
	if every <= 0 {
		every = time.Minute
	}
	var tick func()
	tick = func() {
		if !e.armed {
			return
		}
		now := e.net.K.Now()
		if df.End > 0 && now >= df.End {
			return
		}
		rng := e.net.K.Rand()
		for _, nd := range e.dataNodes(target, df) {
			if df.Prob >= 1 || rng.Float64() < df.Prob {
				if _, ok := target.CorruptRandom(nd, rng); ok {
					e.DataHits++
					e.DataHitNodes[nd]++
				}
			}
		}
		e.net.K.After(every, tick)
	}
	e.net.K.At(df.Start, tick)
}

// scheduleTears arms the recurring torn-write tick for one fault
// entry, mirroring scheduleRot's shape (and its RNG discipline: draws
// happen in sorted node order whether or not a tear lands).
func (e *Engine) scheduleTears(target DataTarget, df DataFault) {
	every := df.Every
	if every <= 0 {
		every = time.Minute
	}
	var tick func()
	tick = func() {
		if !e.armed {
			return
		}
		now := e.net.K.Now()
		if df.End > 0 && now >= df.End {
			return
		}
		rng := e.net.K.Rand()
		for _, nd := range e.dataNodes(target, df) {
			if df.Prob >= 1 || rng.Float64() < df.Prob {
				if target.TornWrite(nd, rng) {
					e.DataHits++
					e.DataHitNodes[nd]++
				}
			}
		}
		e.net.K.After(every, tick)
	}
	e.net.K.At(df.Start, tick)
}

// dataNodes resolves a fault's target set: its explicit Nodes, or every
// store node.  StoreNodes returns sorted IDs, so iteration order — and
// therefore RNG consumption — is deterministic either way.
func (e *Engine) dataNodes(target DataTarget, df DataFault) []simnet.NodeID {
	if df.Nodes != nil {
		return df.Nodes
	}
	return target.StoreNodes()
}
