package scenario

import (
	"reflect"
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

// statRow is one node-wide series and what it reads: a counter's or a
// gauge's Stats field, or the histogram the layer keeps.
type statRow struct {
	layer, name string
	want        int64
	gauge       bool           // want is a gauge's value, not a counter's
	hist        *obs.Histogram // a histogram row: the dump shows this
}

// gaugeRow is a statRow for a gauge.
func gaugeRow(layer, name string, want int64) statRow {
	return statRow{layer: layer, name: name, want: want, gauge: true}
}

// histRow is a statRow for a histogram.
func histRow(layer, name string, h *obs.Histogram) statRow {
	return statRow{layer: layer, name: name, hist: h}
}

// kind is the Metric.Kind of the row's series.
func (r statRow) kind() string {
	switch {
	case r.hist != nil:
		return "hist"
	case r.gauge:
		return "gauge"
	}
	return "counter"
}

// dumpedAs is h as a registry holding nothing else dumps it.
func dumpedAs(layer, name string, h *obs.Histogram) obs.Metric {
	reg := obs.NewRegistry()
	reg.HistogramSource(layer, name, h)
	return reg.Snapshot()[0]
}

// netRows lists simnet's node-wide series against the network's Stats:
// what the network counted between attaching the registry (before) and
// now (after).
func netRows(before, after simnet.Stats) []statRow {
	d := func(f func(simnet.Stats) int) int64 { return int64(f(after) - f(before)) }
	rows := []statRow{
		{layer: "simnet", name: "msgs_sent", want: d(func(s simnet.Stats) int { return s.MessagesSent })},
		{layer: "simnet", name: "msgs_delivered", want: d(func(s simnet.Stats) int { return s.MessagesDelivered })},
		{layer: "simnet", name: "drop_crash", want: d(func(s simnet.Stats) int { return s.DroppedByCrash })},
		{layer: "simnet", name: "drop_partition", want: d(func(s simnet.Stats) int { return s.DroppedByPartition })},
		{layer: "simnet", name: "drop_fault", want: d(func(s simnet.Stats) int { return s.DroppedByFault })},
		{layer: "simnet", name: "drop_loss", want: d(func(s simnet.Stats) int { return s.DroppedByLoss })},
		{layer: "simnet", name: "drop_nohandler", want: d(func(s simnet.Stats) int { return s.DroppedNoHandler })},
		{layer: "simnet", name: "crashes", want: d(func(s simnet.Stats) int { return s.Crashes })},
		{layer: "simnet", name: "recoveries", want: d(func(s simnet.Stats) int { return s.Recoveries })},
		{layer: "simnet", name: "retries", want: d(func(s simnet.Stats) int { return s.Retries })},
		{layer: "simnet", name: "bytes_sent", want: after.BytesSent - before.BytesSent},
	}
	for kind, n := range after.RetriesByKind {
		rows = append(rows, statRow{layer: "simnet", name: "retries_" + kind, want: int64(n - before.RetriesByKind[kind])})
	}
	return rows
}

// checkRows requires every row's series to read what the layer keeps,
// and every node-wide series of the rows' layers, of any kind, to have
// a row.
func checkRows(t *testing.T, what string, reg *obs.Registry, rows []statRow) {
	t.Helper()
	type series struct{ layer, name, kind string }
	listed := make(map[series]bool)
	layers := make(map[string]bool)
	for _, r := range rows {
		listed[series{r.layer, r.name, r.kind()}] = true
		layers[r.layer] = true
	}
	// A family with a per-entity summary (simnet's links) rolls up
	// counts no Stats field keeps one of; it has no row.
	snap := reg.Snapshot()
	perEntity := make(map[obs.Key]bool)
	for _, m := range snap {
		if m.Kind == "summary" {
			perEntity[m.Key] = true
		}
	}
	dumped := make(map[series]obs.Metric)
	for _, m := range snap {
		s := series{m.Key.Layer, m.Key.Name, m.Kind}
		if !layers[s.layer] || perEntity[m.Key] {
			continue
		}
		dumped[s] = m
		if !listed[s] {
			t.Errorf("%s: %s %s/%s has no row", what, s.kind, s.layer, s.name)
		}
	}
	for _, r := range rows {
		m, ok := dumped[series{r.layer, r.name, r.kind()}]
		switch {
		case r.kind() == "counter":
			if got := reg.CounterValue(obs.NodeWide, r.layer, r.name); got != r.want {
				t.Errorf("%s: %s/%s = %d, its Stats field says %d", what, r.layer, r.name, got, r.want)
			}
		case !ok && (r.gauge && r.want == 0 || r.hist != nil && r.hist.Count() == 0):
			// Zero: the dump lists nothing, as it should.
		case !ok:
			t.Errorf("%s: the dump has no %s %s/%s", what, r.kind(), r.layer, r.name)
		case r.gauge && m.Value != float64(r.want):
			t.Errorf("%s: gauge %s/%s = %v, the layer keeps %d", what, r.layer, r.name, m.Value, r.want)
		case r.hist != nil && !reflect.DeepEqual(m, dumpedAs(r.layer, r.name, r.hist)):
			t.Errorf("%s: histogram %s/%s (count %d, %+v) is not the layer's (count %d)",
				what, r.layer, r.name, m.Count, *m.Hist, r.hist.Count())
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

// TestRegistrySeriesReadStats: each series a layer registers reads the
// value it is named for — counters the Stats fields of the network, the
// scrub scheduler, the introspective controller, the soak world's read
// wire bytes and the workload engine, gauges the engine's confirmed
// objects and the controller's tier size, histograms the engine's
// latencies and the controller's trajectory, on a soak world with
// churn, faults, scrubbing, introspection and sheds; and the auditors'
// Stats and detection latency on an audited pool world.  The registry
// keeps no second copy, so a series that read the wrong value, or a
// value no series reads, shows here.
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

	ctrl := world.Controller()
	ss, cs, es := world.Scheduler().Stats(), ctrl.Stats(), eng.Stats()
	if es.Shed == 0 || es.Retries == 0 || cs.Promotes == 0 || ss.ScrubbedFrags == 0 {
		t.Fatalf("the soak exercised too little: %+v %+v %+v", es, cs, ss)
	}
	rows := append(netRows(before, net.Stats()),
		statRow{layer: "scrub", name: "frags", want: ss.ScrubbedFrags},
		statRow{layer: "scrub", name: "bad", want: ss.ScrubBad},
		statRow{layer: "scrub", name: "missing", want: ss.ScrubMissing},
		statRow{layer: "scrub", name: "bytes", want: ss.ScrubBytes},
		statRow{layer: "scrub", name: "bg_repairs", want: ss.Repairs},
		statRow{layer: "scrub", name: "bg_repair_failed", want: ss.RepairFailed},
		statRow{layer: "scrub", name: "bg_repairs_deferred", want: ss.RepairsDeferred},
		statRow{layer: "scrub", name: "store_flushes", want: ss.Flushes},
		statRow{layer: "introspect", name: "promote", want: int64(cs.Promotes)},
		statRow{layer: "introspect", name: "demote", want: int64(cs.Demotes)},
		statRow{layer: "introspect", name: "promote_denied", want: int64(cs.Denied)},
		statRow{layer: "introspect", name: "read_wire_bytes", want: world.ReadWireBytes()},
		gaugeRow("introspect", "tier_replicas", int64(ctrl.TierSize())),
		histRow("introspect", "tier_replicas_per_epoch", ctrl.Trajectory()),
		statRow{layer: "workload", name: "issued", want: int64(es.Issued)},
		statRow{layer: "workload", name: "ok", want: int64(es.OK)},
		statRow{layer: "workload", name: "failed", want: int64(es.Failed)},
		statRow{layer: "workload", name: "shed", want: int64(es.Shed)},
		statRow{layer: "workload", name: "retries", want: int64(es.Retries)},
		statRow{layer: "workload", name: "creates", want: int64(es.Creates)},
		gaugeRow("workload", "objects", int64(es.Confirmed)),
		histRow("workload", "op_latency_ns", eng.Latency()),
		histRow("workload", "read_latency_ns", eng.ReadLatency()),
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
		{layer: "audit", name: "polls", want: as.Polls},
		{layer: "audit", name: "votes", want: as.VotesServed},
		{layer: "audit", name: "agrees", want: as.Agrees},
		{layer: "audit", name: "disagrees", want: as.Disagrees},
		{layer: "audit", name: "missing", want: as.Missing},
		{layer: "audit", name: "healthy", want: as.Healthy},
		{layer: "audit", name: "inconclusive", want: as.Inconclusive},
		{layer: "audit", name: "detections", want: as.Detections},
		{layer: "audit", name: "repairs", want: as.Repairs},
		{layer: "audit", name: "repair_failed", want: as.RepairFailures},
		{layer: "audit", name: "suppressed", want: as.VotesSuppressed},
		{layer: "audit", name: "replica_checks", want: rs.Checks},
		{layer: "audit", name: "replica_detections", want: rs.Detections},
		{layer: "audit", name: "replica_repairs", want: rs.Repairs},
		histRow("audit", "detection_latency_ns", &a.DetectionLatency),
	})
}
