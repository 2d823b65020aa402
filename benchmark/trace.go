package main

import (
	"slices"
	"strings"
	"time"

	"oceanstore/internal/core"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
	"oceanstore/internal/workload"
)

// tracer attributes the wall clock of one Kernel.RunWhile to whoever
// was running, using only hooks the system already exposes:
//
//   - simnet.Network.SetTrace, whose "deliver" event fires immediately
//     before a message's handlers: from one deliver to the next the
//     delivered kind owns the clock;
//   - a wrapping workload.Target: while SoakWorld.Do runs, the op kind
//     owns the clock instead;
//   - replica.Ring.OnCommit, which fires when a ring executes a
//     committed update, just before it completes the waiting sessions,
//     records the version and (every ArchiveEvery-th commit) archives
//     it, and then pushes the update down the dissemination tree: from
//     the callback to the ring's next send the commit hook owns the
//     clock.  With ArchiveEvery=1 that span is almost all archival.
//
// Each boundary charges the time since the previous boundary to the
// current owner, so the owners' self times partition the run exactly —
// nothing is counted twice and no span can be negative.
//
// Two limits follow from staying outside the program.  Timer work
// (gossip, scrub, controller ticks, engine think timers) rides on the
// delivery it follows.  Leaf libraries called inside handlers (crypto,
// erasure coding, the blobstore) are invisible; direct.go costs those
// by calling them.
type tracer struct {
	last time.Time
	// base owns the clock outside Do; do overrides it inside (or -1);
	// inHook overrides base from an OnCommit callback to the next send.
	base, do int
	inHook   bool
	self     []time.Duration
	// Owners: ownPrelude, the three op kinds, the commit hook, then one
	// per message kind in order of first appearance.
	names []string
	index map[string]int
	sent  []int64 // messages sent, by owner (message kinds only)
	// hooked is how many of the world's objects have OnCommit attached.
	hooked int
}

const (
	ownPrelude = iota // before the first delivery
	ownRead
	ownWrite
	ownCreate
	ownCommitHook
	ownFirstKind
)

func newTracer() *tracer {
	t := &tracer{
		base:  ownPrelude,
		do:    -1,
		names: []string{"", "read", "write", "create", "commit-hook"},
		index: make(map[string]int),
	}
	t.self = make([]time.Duration, len(t.names))
	t.sent = make([]int64, len(t.names))
	return t
}

// owner interns a message kind.
func (t *tracer) owner(kind string) int {
	i, ok := t.index[kind]
	if !ok {
		i = len(t.names)
		t.index[kind] = i
		t.names = append(t.names, kind)
		t.self = append(t.self, 0)
		t.sent = append(t.sent, 0)
	}
	return i
}

// start opens the partition at now; stop closes it at now, so the self
// times sum to exactly stop - start.
func (t *tracer) start(now time.Time) { t.last = now }
func (t *tracer) stop(now time.Time)  { t.chargeAt(now) }

// charge bills the time since the last boundary to the current owner.
func (t *tracer) charge() { t.chargeAt(time.Now()) }

func (t *tracer) chargeAt(now time.Time) {
	cur := t.base
	switch {
	case t.do >= 0:
		cur = t.do
	case t.inHook:
		cur = ownCommitHook
	}
	t.self[cur] += now.Sub(t.last)
	t.last = now
}

// onNet is the simnet trace callback.
func (t *tracer) onNet(ev simnet.TraceEvent) {
	switch ev.Event {
	case "deliver":
		t.charge()
		t.base, t.inHook = t.owner(ev.Kind), false
	case "send":
		t.sent[t.owner(ev.Kind)]++
		if t.inHook {
			t.charge()
			t.inHook = false
		}
	}
}

// onCommit is the replica.Ring.OnCommit callback.
func (t *tracer) onCommit(*update.Update, update.Outcome) {
	t.charge()
	t.inHook = true
}

// attach hooks the tracer into a world and returns the target the
// engine should drive.
func (t *tracer) attach(w *core.SoakWorld) workload.Target {
	w.Pool.Net.SetTrace(t.onNet)
	t.hookRings(w)
	return tracedTarget{t: t, inner: w, world: w}
}

// hookRings attaches onCommit to every object created since the last
// call.
func (t *tracer) hookRings(w *core.SoakWorld) {
	objs := w.Objects()
	for _, obj := range objs[t.hooked:] {
		if ring, ok := w.Pool.Ring(obj); ok {
			ring.OnCommit(t.onCommit)
		}
	}
	t.hooked = len(objs)
}

// tracedTarget wraps the system under test so each Do is a span.  world
// is inner again, for hooking the rings that creates add (nil in unit
// tests that drive a fake target).
type tracedTarget struct {
	t     *tracer
	inner workload.Target
	world *core.SoakWorld
}

func (tt tracedTarget) Do(req workload.Request, done func(ok bool)) error {
	t := tt.t
	t.charge()
	t.inHook = false
	outer := t.do
	switch req.Kind {
	case workload.OpWrite:
		t.do = ownWrite
	case workload.OpCreate:
		t.do = ownCreate
	default:
		t.do = ownRead
	}
	err := tt.inner.Do(req, done)
	t.charge()
	t.do = outer
	if req.Kind == workload.OpCreate && tt.world != nil {
		t.hookRings(tt.world)
	}
	return err
}

// kindModules maps a message-kind prefix to the module that handles
// it.  A kind matching no prefix is charged to "unknown", which the
// correctness checks require to be empty.
var kindModules = []struct{ prefix, module string }{
	{"byz-", "byz"},
	{"dtree-", "dtree"},
	{"replica-", "replica"},
	{"arch-", "archive"},
	{"audit-", "audit"},
	{"core-read-", "core"},
}

// byzPhases are the agreement message kinds, each reported as its own
// span (byz.<phase>_s) because they cost very differently.
var byzPhases = []string{"request", "preprepare", "prepare", "commit", "reply", "viewchange"}

func moduleOf(kind string) string {
	for _, km := range kindModules {
		if !strings.HasPrefix(kind, km.prefix) {
			continue
		}
		if km.module == "byz" && !slices.Contains(byzPhases, kind[len(km.prefix):]) {
			break // a byz kind with no span of its own must not hide in the sum
		}
		return km.module
	}
	return "unknown"
}

// report writes the spans and per-kind message counts into m.
func (t *tracer) report(m metrics) {
	sec := func(i int) float64 { return t.self[i].Seconds() }
	m.set("sim.prelude_s", sec(ownPrelude))
	m.set("core.do_read_s", sec(ownRead))
	m.set("core.do_write_s", sec(ownWrite))
	m.set("core.do_create_s", sec(ownCreate))
	m.set("replica.on_commit_s", sec(ownCommitHook))

	handle := map[string]float64{"unknown": 0}
	for _, km := range kindModules {
		handle[km.module] = 0
	}
	for _, phase := range byzPhases {
		m.set("byz."+phase+"_s", 0)
	}
	var byzMsgs int64
	m.set("dtree.updates", 0)
	for i := ownFirstKind; i < len(t.names); i++ {
		kind, mod := t.names[i], moduleOf(t.names[i])
		handle[mod] += sec(i)
		if mod == "byz" {
			byzMsgs += t.sent[i]
			m.set("byz."+strings.TrimPrefix(kind, "byz-")+"_s", sec(i))
		}
		if kind == "dtree-update" {
			m.set("dtree.updates", float64(t.sent[i]))
		}
	}
	for mod, s := range handle {
		m.set(mod+".handle_s", s)
	}
	if commits := m["byz.commits"]; commits > 0 {
		m.set("byz.us_per_commit", handle["byz"]/commits*1e6)
		m.set("byz.msgs_per_commit", float64(byzMsgs)/commits)
	}
}

// unknownKinds lists delivered kinds no module claims.
func (t *tracer) unknownKinds() []string {
	var out []string
	for _, kind := range t.names[ownFirstKind:] {
		if moduleOf(kind) == "unknown" {
			out = append(out, kind)
		}
	}
	return out
}
