package main

import (
	"testing"
	"time"

	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
	"oceanstore/internal/workload"
)

// spin burns a little wall clock so spans are non-zero.
func spin() {
	for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
	}
}

type spinTarget struct{ inside func() }

func (s spinTarget) Do(workload.Request, func(bool)) error {
	spin()
	if s.inside != nil {
		s.inside()
	}
	spin()
	return nil
}

// TestTracerPartitions drives the tracer through every nesting the
// system can produce — Do before any delivery, Do inside a delivery's
// interval, a delivery inside a Do, a commit hook closed by a send —
// and checks the owners' self
// times are all positive and add up to the traced interval exactly.
func TestTracerPartitions(t *testing.T) {
	tr := newTracer()
	deliver := func(kind string) { tr.onNet(simnet.TraceEvent{Event: "deliver", Kind: kind}) }
	plain := tracedTarget{t: tr, inner: spinTarget{}}
	nested := tracedTarget{t: tr, inner: spinTarget{inside: func() { deliver("dtree-update") }}}

	begin := time.Now()
	tr.start(begin)
	plain.Do(workload.Request{Kind: workload.OpRead}, nil) // prelude, then read
	spin()
	deliver("byz-request")
	spin()
	plain.Do(workload.Request{Kind: workload.OpWrite}, nil) // nested in byz-request's interval
	spin()
	deliver("byz-commit")
	nested.Do(workload.Request{Kind: workload.OpCreate}, nil) // a delivery fires inside Do
	spin()                                                    // now owned by dtree-update
	tr.onCommit(nil, update.Outcome{})
	spin() // the commit hook, until the ring's next send
	tr.onNet(simnet.TraceEvent{Event: "send", Kind: "byz-reply"})
	spin() // dtree-update again
	end := time.Now()
	tr.stop(end)

	var sum time.Duration
	for i, d := range tr.self {
		if d < 0 {
			t.Errorf("owner %q has negative self time %v", tr.names[i], d)
		}
		sum += d
	}
	if sum != end.Sub(begin) {
		t.Errorf("self times sum to %v, traced interval was %v", sum, end.Sub(begin))
	}
	m := metrics{}
	m.set("byz.commits", 1)
	tr.report(m)
	for _, name := range []string{
		"sim.prelude_s", "core.do_read_s", "core.do_write_s", "core.do_create_s",
		"byz.request_s", "dtree.handle_s", "replica.on_commit_s",
	} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
	// byz-commit's interval was entirely a nested Do: nothing left over
	// but the boundary bookkeeping itself.
	if m["byz.commit_s"] > 100e-6 {
		t.Errorf("byz.commit_s = %v: the nested Do was not subtracted", m["byz.commit_s"])
	}
	if d := m["byz.handle_s"] - (m["byz.request_s"] + m["byz.commit_s"] + m["byz.reply_s"]); d > 1e-12 || d < -1e-12 {
		t.Errorf("byz.handle_s %v is not the sum of its phases", m["byz.handle_s"])
	}
	if m["byz.msgs_per_commit"] != 1 {
		t.Errorf("byz.msgs_per_commit = %v, want the one byz-reply sent", m["byz.msgs_per_commit"])
	}
	if m["unknown.handle_s"] != 0 || len(tr.unknownKinds()) != 0 {
		t.Errorf("unknown kinds %v charged %v s", tr.unknownKinds(), m["unknown.handle_s"])
	}
}

func TestModuleOf(t *testing.T) {
	for kind, want := range map[string]string{
		"byz-request": "byz", "byz-preprepare": "byz", "byz-prepare": "byz",
		"byz-commit": "byz", "byz-reply": "byz", "byz-viewchange": "byz",
		"dtree-update": "dtree", "dtree-inval": "dtree", "dtree-pull": "dtree", "dtree-pull-reply": "dtree",
		"replica-gossip": "replica", "replica-tentative": "replica",
		"arch-req": "archive", "arch-frag": "archive",
		"audit-poll": "audit", "audit-vote": "audit",
		"core-read-req": "core", "core-read-rep": "core",
		"byz-newphase": "unknown", "plaxton-hop": "unknown",
	} {
		if got := moduleOf(kind); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", kind, got, want)
		}
	}
	tr := newTracer()
	tr.onNet(simnet.TraceEvent{Event: "deliver", Kind: "plaxton-hop"})
	if got := tr.unknownKinds(); len(got) != 1 || got[0] != "plaxton-hop" {
		t.Errorf("unknownKinds = %v, want [plaxton-hop]", got)
	}
}
