package scenario

import (
	"testing"
	"time"

	"oceanstore/internal/audit"
	"oceanstore/internal/core"
	"oceanstore/internal/fault"
	"oceanstore/internal/object"
	"oceanstore/internal/obs"
	"oceanstore/internal/simnet"
	"oceanstore/internal/workload"
)

// statRow is one counter series and the Stats field it reads.
type statRow struct {
	layer, name string
	want        int64
}

// netRows lists simnet's node-wide series against the network's Stats:
// what the network counted between attaching the registry (before) and
// now (after).
func netRows(before, after simnet.Stats) []statRow {
	d := func(f func(simnet.Stats) int) int64 { return int64(f(after) - f(before)) }
	rows := []statRow{
		{"simnet", "msgs_sent", d(func(s simnet.Stats) int { return s.MessagesSent })},
		{"simnet", "msgs_delivered", d(func(s simnet.Stats) int { return s.MessagesDelivered })},
		{"simnet", "drop_crash", d(func(s simnet.Stats) int { return s.DroppedByCrash })},
		{"simnet", "drop_partition", d(func(s simnet.Stats) int { return s.DroppedByPartition })},
		{"simnet", "drop_fault", d(func(s simnet.Stats) int { return s.DroppedByFault })},
		{"simnet", "drop_loss", d(func(s simnet.Stats) int { return s.DroppedByLoss })},
		{"simnet", "drop_nohandler", d(func(s simnet.Stats) int { return s.DroppedNoHandler })},
		{"simnet", "crashes", d(func(s simnet.Stats) int { return s.Crashes })},
		{"simnet", "recoveries", d(func(s simnet.Stats) int { return s.Recoveries })},
		{"simnet", "retries", d(func(s simnet.Stats) int { return s.Retries })},
		{"simnet", "bytes_sent", after.BytesSent - before.BytesSent},
	}
	for kind, n := range after.RetriesByKind {
		rows = append(rows, statRow{"simnet", "retries_" + kind, int64(n - before.RetriesByKind[kind])})
	}
	return rows
}

// checkRows requires every row's series to read its Stats field, and
// every node-wide counter of the rows' layers to have a row.
func checkRows(t *testing.T, what string, reg *obs.Registry, rows []statRow) {
	t.Helper()
	listed := make(map[[2]string]bool)
	layers := make(map[string]bool)
	for _, r := range rows {
		listed[[2]string{r.layer, r.name}] = true
		layers[r.layer] = true
		if got := reg.CounterValue(obs.NodeWide, r.layer, r.name); got != r.want {
			t.Errorf("%s: %s/%s = %d, its Stats field says %d", what, r.layer, r.name, got, r.want)
		}
	}
	for _, m := range reg.Snapshot() {
		if m.Kind == "counter" && m.Key.Node == obs.NodeWide && layers[m.Key.Layer] && !listed[[2]string{m.Key.Layer, m.Key.Name}] {
			t.Errorf("%s: %s/%s has no row", what, m.Key.Layer, m.Key.Name)
		}
	}
}

// copyStats detaches a Stats from the maps the network reuses.
func copyStats(s simnet.Stats) simnet.Stats {
	retries := make(map[string]int, len(s.RetriesByKind))
	for k, v := range s.RetriesByKind {
		retries[k] = v
	}
	s.RetriesByKind, s.ByKind = retries, nil
	return s
}

// TestRegistrySeriesReadStats: each counter series a layer registers
// reads the Stats field it is named for — the network's, the scrub
// scheduler's, the introspective controller's, the soak world's read
// wire bytes and the workload engine's on a soak world with churn,
// faults, scrubbing, introspection and sheds; and the auditors' on an
// audited pool world.  The registry keeps no second copy, so a series
// that read the wrong field, or a field no series reads, shows here.
func TestRegistrySeriesReadStats(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := core.DefaultSoakConfig(64)
	cfg.Objects = 8
	cfg.Secondaries = 2
	cfg.Clients = 32
	cfg.MaxInFlight = 2 // sheds, and retries after them
	cfg.ReadService = 20 * time.Millisecond
	cfg.ScrubInterval = 20 * time.Second
	cfg.FlushInterval = 5 * time.Second
	cfg.Introspect = true
	cfg.IntrospectEpoch = 2 * time.Second
	cfg.NodeBudget = 3 // denied promotions
	world, err := core.NewSoakWorld(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	net := world.Pool.Net
	before := copyStats(net.Stats())
	world.Instrument(reg, nil)
	fault.Install(net, *fault.NewPlan("stats").
		Drop(0.01).
		PartitionWindow([]simnet.NodeID{40, 41, 42}, 1, 20*time.Second, 40*time.Second).
		CrashWindow(50, 30*time.Second, time.Hour). // down at the end: crashes outnumber recoveries
		BitRot(0.3, 10*time.Second, 0, time.Hour)).BindData(world.Pool.Arch)
	eng := workload.NewEngine(world.Pool.K, workload.EngineConfig{
		Clients:       cfg.Clients,
		Ops:           3000,
		Mix:           workload.Mix{WriteFrac: 0.3, CreateFrac: 0.05},
		Objects:       cfg.Objects,
		ZipfS:         1.1,
		MeanWriteSize: 128,
		ClosedLoop:    true,
		MeanThink:     20 * time.Millisecond,
		RetryBackoff:  time.Second,
	}, world)
	eng.Instrument(reg)
	world.StartChurn(5*time.Second, 3*time.Second)
	eng.Start()
	world.Pool.K.RunWhile(func() bool { return !eng.Done() })

	ss, cs, es := world.Scheduler().Stats(), world.Controller().Stats(), eng.Stats()
	if es.Shed == 0 || es.Retries == 0 || cs.Promotes == 0 || ss.ScrubbedFrags == 0 {
		t.Fatalf("the soak exercised too little: %+v %+v %+v", es, cs, ss)
	}
	rows := append(netRows(before, net.Stats()),
		statRow{"scrub", "frags", ss.ScrubbedFrags},
		statRow{"scrub", "bad", ss.ScrubBad},
		statRow{"scrub", "missing", ss.ScrubMissing},
		statRow{"scrub", "bytes", ss.ScrubBytes},
		statRow{"scrub", "bg_repairs", ss.Repairs},
		statRow{"scrub", "bg_repair_failed", ss.RepairFailed},
		statRow{"scrub", "bg_repairs_deferred", ss.RepairsDeferred},
		statRow{"scrub", "store_flushes", ss.Flushes},
		statRow{"introspect", "promote", int64(cs.Promotes)},
		statRow{"introspect", "demote", int64(cs.Demotes)},
		statRow{"introspect", "promote_denied", int64(cs.Denied)},
		statRow{"introspect", "read_wire_bytes", world.ReadWireBytes()},
		statRow{"workload", "issued", int64(es.Issued)},
		statRow{"workload", "ok", int64(es.OK)},
		statRow{"workload", "failed", int64(es.Failed)},
		statRow{"workload", "shed", int64(es.Shed)},
		statRow{"workload", "retries", int64(es.Retries)},
		statRow{"workload", "creates", int64(es.Creates)},
	)
	checkRows(t, "soak", reg, rows)

	areg := obs.NewRegistry()
	w := newPoolWorld(Options{Seed: 2, Reg: areg}, 32, 3, 2)
	a := w.pool.StartAudit(audit.Config{Interval: time.Minute, MaxVotesPerInterval: 2})
	ra := w.pool.StartReplicaAudit(audit.Config{Interval: time.Minute})
	eng2 := fault.Install(w.pool.Net, *fault.NewPlan("audited").
		ChurnNodes([]simnet.NodeID{8, 9, 10, 11}, 20*time.Minute, 2*time.Minute, 15*time.Minute).
		BitRot(0.2, 3*time.Minute, 10*time.Minute, 2*time.Hour))
	eng2.BindData(w.pool.Arch)
	w.pool.K.At(30*time.Minute, func() {
		ring, _ := w.pool.Ring(w.objs[0])
		ring.Secondaries()[0].Rep.TamperBase(func(v *object.Version) {
			if len(v.Blocks) > 0 && len(v.Blocks[0].CT) > 0 {
				v.Blocks[0].CT[0] ^= 0xFF
			}
		})
	})
	w.pool.Run(3 * time.Hour)

	as, rs := a.Stats(), ra.Stats()
	if as.Detections == 0 || as.VotesSuppressed == 0 || rs.Detections == 0 {
		t.Fatalf("the audit exercised too little: %+v %+v", as, rs)
	}
	checkRows(t, "audited", areg, []statRow{
		{"audit", "polls", as.Polls},
		{"audit", "votes", as.VotesServed},
		{"audit", "agrees", as.Agrees},
		{"audit", "disagrees", as.Disagrees},
		{"audit", "missing", as.Missing},
		{"audit", "healthy", as.Healthy},
		{"audit", "inconclusive", as.Inconclusive},
		{"audit", "detections", as.Detections},
		{"audit", "repairs", as.Repairs},
		{"audit", "repair_failed", as.RepairFailures},
		{"audit", "suppressed", as.VotesSuppressed},
		{"audit", "replica_checks", rs.Checks},
		{"audit", "replica_detections", rs.Detections},
		{"audit", "replica_repairs", rs.Repairs},
	})
}
