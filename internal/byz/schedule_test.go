package byz

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"oceanstore/internal/fault"
	"oceanstore/internal/guid"
	"oceanstore/internal/par"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// schedules sizes the long sweep: go test ./internal/byz -run
// TestScheduleSearch -schedules 2000 runs that many seeds of every plan.
var schedules = flag.Int("schedules", 0, "seeds per plan for TestScheduleSearch's long sweep over every plan (0 runs the in-suite slice)")

// Schedule search (ROADMAP 15(a)): a 4-member tier (f = 1) with three
// concurrent clients, an executor on every member, and a fault plan
// that reorders and drops messages, orders them by sender priority, or
// crashes the view-0 primary or makes it equivocate partway through.
// The plan and the kernel seed fix one interleaving; sweeping seeds
// samples many.  At the end the correct members' executions are judged
// for safety alone: a member that missed messages may have executed
// less, but never something else.
const (
	searchMembers = 4
	// searchSpacing separates one client's submissions; the clients
	// start a third of it apart, so their requests interleave.
	searchSpacing = 40 * time.Millisecond
	// searchRun is the virtual time a schedule runs: enough for several
	// view changes (requestTimeout 3 s) after the last submission.
	searchRun = time.Minute
)

// executed is one member's executions, in the order it ran them.
type executed struct {
	seq    uint64
	digest guid.GUID
}

// searchShape is how much traffic a schedule carries.
type searchShape struct{ clients, requests int }

// fullShape is the sweep's: three clients, four requests each.
var fullShape = searchShape{clients: 3, requests: 4}

// schedule is a fault plan and, for a primary-crash plan, how many
// messages member 0 — the view-0 primary — sends before it crashes
// (0: it never does).  The crash is crash-stop, right after that send:
// the member's node goes down, so it sends and receives nothing more,
// and its executor is cleared, so it executes nothing more.  For an
// equivocation plan, member 0 turns Byzantine after its
// equivocateAfter-th message instead: from then on each pre-prepare it
// sends to members 2 and 3 carries another request than the one it
// sends to member 1 at the same view and sequence number, it votes
// prepare and commit for that request to them, and its view-change
// votes hide its prepared certificates and, for every other view,
// claim a floor far ahead of the tier's.  For a
// priority-change-point plan, pctDepth is its depth d (see pct).
type schedule struct {
	plan            fault.Plan
	crashAfter      int
	equivocateAfter int
	pctDepth        int
}

// name is the plan's, with the crash, the equivocation or the PCT depth
// in front of it.
func (s schedule) name() string {
	switch {
	case s.crashAfter > 0:
		return fmt.Sprintf("crash-primary-after-%d/%s", s.crashAfter, s.plan.Name)
	case s.equivocateAfter > 0:
		return fmt.Sprintf("equivocate-after-%d/%s", s.equivocateAfter, s.plan.Name)
	case s.pctDepth > 0:
		return fmt.Sprintf("pct-depth-%d/%s", s.pctDepth, s.plan.Name)
	}
	return s.plan.Name
}

// reorderPlans reorder messages with uniform jitter up to a few link
// latencies, which leaves the requests' timers quiet.  The in-suite
// slice sweeps them: the protocol passes every schedule.
func reorderPlans() []schedule {
	return []schedule{
		{plan: *fault.NewPlan("jitter-50ms").Jitter(0, 50*time.Millisecond)},
		{plan: *fault.NewPlan("jitter-400ms").Jitter(0, 400*time.Millisecond)},
	}
}

// viewChangePlans delay or drop messages enough to fire view changes,
// often several in a row, some cut short before their new view
// prepares anything.  They broke safety while a new view recycled what
// a member had not committed; since a new view carries the prepared
// certificates, the protocol passes every schedule of them in the long
// sweep (EXPERIMENTS.md, "Agreement safety, searched"), so the in-suite
// slice sweeps them too.
func viewChangePlans() []schedule {
	return []schedule{
		{plan: *fault.NewPlan("jitter-2s").Jitter(0, 2*time.Second)},
		{plan: *fault.NewPlan("drop-10%").Drop(0.1)},
		{plan: *fault.NewPlan("drop-30%").Drop(0.3)},
		{plan: *fault.NewPlan("drop-20%-jitter-200ms").Drop(0.2).Jitter(0, 200*time.Millisecond)},
	}
}

// crashAfters are the primary-crash plans' crash points: member 0 stops
// right after its k-th sent message, early in agreement (its first
// pre-prepares) and later (amid its prepares, commits and replies).
var crashAfters = []int{1, 2, 4, 8, 16}

// crashPlans crash the view-0 primary after each of crashAfters sends,
// on a fault-free network and under 50 ms of jitter.  The crash fires a
// view change, which no other passing plan does; the protocol passes
// every schedule of them in the long sweep (EXPERIMENTS.md), so the
// in-suite slice sweeps them too.
func crashPlans() []schedule {
	var out []schedule
	for _, net := range []fault.Plan{*fault.NewPlan("fault-free"), *fault.NewPlan("jitter-50ms").Jitter(0, 50*time.Millisecond)} {
		for _, k := range crashAfters {
			out = append(out, schedule{plan: net, crashAfter: k})
		}
	}
	return out
}

// equivocationPlans make the view-0 primary equivocate after each of
// crashAfters sends on the network net (ROADMAP 22(d)).  Members 2 and
// 3 can prepare and commit the forged request with the equivocator's
// votes while member 1 holds the real one, so the backups change views
// with the equivocator hiding its certificates.  Where loss keeps one of
// them from preparing, a commit quorum of only f+1 lets the other
// execute a request that the view change's 2f+1 votes need not show,
// which the plans under 10 % loss catch.  At 2f+1 the protocol passes
// every schedule of them in the long sweep, on a fault-free network,
// under 50 ms of jitter and under 10 % loss, so the in-suite slice
// sweeps all three (EXPERIMENTS.md, "Agreement safety, searched").
func equivocationPlans(net fault.Plan) []schedule {
	var out []schedule
	for _, k := range crashAfters {
		out = append(out, schedule{plan: net, equivocateAfter: k})
	}
	return out
}

// pctPlans are priority-change-point schedules of depth 1, 2 and 3 on a
// fault-free network (ROADMAP 22(d)).  The protocol passes every
// schedule of them in the long sweep, so the in-suite slice sweeps them
// too.
func pctPlans() []schedule {
	var out []schedule
	for d := 1; d <= 3; d++ {
		out = append(out, schedule{plan: *fault.NewPlan("fault-free"), pctDepth: d})
	}
	return out
}

const (
	// pctSteps is the range a change point is drawn from: the sends of a
	// fault-free schedule, 32 for each of its 12 requests, so every
	// change point fires.
	pctSteps = 384
	// pctQuantum is the delay a message pays for each sender that
	// outranks its own: wider than the links' latency spread, so
	// priority decides the order, and six of them stay far under
	// requestTimeout, so no view changes.
	pctQuantum = 50 * time.Millisecond
)

// pct is a priority-change-point plan (PCT, Burckhardt et al., ASPLOS
// 2010) for message passing: each node is a thread, and the network
// delivers the higher-priority senders' messages first.  Every node
// starts with a distinct random priority in d..d+n-1; at the i-th of
// d-1 change points, each a random send in 1..pctSteps, the sender's
// priority falls to i, below every starting one.
type pct struct {
	prio     []int       // by node ID
	changeAt map[int]int // send number → the priority its sender falls to
	sent     int
}

func newPCT(nodes, depth int, seed int64) *pct {
	r := rand.New(rand.NewSource(seed))
	p := &pct{prio: make([]int, nodes), changeAt: map[int]int{}}
	for i, j := range r.Perm(nodes) {
		p.prio[i] = depth + j
	}
	for i, step := range r.Perm(pctSteps)[:depth-1] {
		p.changeAt[step+1] = i + 1
	}
	return p
}

func (p *pct) FilterSend(m simnet.Message, _ time.Duration) (bool, time.Duration) {
	p.sent++
	if i, ok := p.changeAt[p.sent]; ok {
		p.prio[m.From] = i
	}
	rank := 0
	for _, q := range p.prio {
		if q > p.prio[m.From] {
			rank++
		}
	}
	return false, time.Duration(rank) * pctQuantum
}

// equivocator is the fault plan of an equivocation schedule: it counts
// member 0's sends, and once the count passes after it drops member
// 0's pre-prepares to members 2 and 3 and sends each of them one that
// carries a forged request at the same view and sequence number, with
// member 0's prepare and commit votes for it; and it strips the
// prepared certificates from member 0's view-change votes and, in
// every other one, moves its floor far ahead.  Every
// message, forged ones included, then passes the network's own plan.
// farAhead is how far past its real floor the equivocator claims to
// be in a vote for an even view.
const farAhead = 1 << 20

type equivocator struct {
	net     *simnet.Network
	inner   simnet.FaultPlan
	members []simnet.NodeID
	after   int
	sent    int
	forged  int
	forging bool
}

func (e *equivocator) FilterSend(m simnet.Message, now time.Duration) (bool, time.Duration) {
	if m.From == e.members[0] && !e.forging {
		e.sent++
		if e.sent <= e.after {
			return e.inner.FilterSend(m, now)
		}
		e.forging = true
		defer func() { e.forging = false }()
		switch p := m.Payload.(type) {
		case prePrepareMsg:
			if m.To != e.members[2] && m.To != e.members[3] {
				break
			}
			forged := req(fmt.Sprintf("forged at view %d seq %d", p.View, p.Seq), p.Req.Size)
			forged.Tag, forged.Client = p.Req.Tag, p.Req.Client
			p.Req = forged
			e.net.Send(m.From, m.To, m.Kind, p, m.Size)
			vote := voteMsg{Tag: p.Tag, View: p.View, Seq: p.Seq, Digest: forged.ID, Replica: 0}
			e.net.Send(m.From, m.To, kindPrepare, vote, CSmall)
			e.net.Send(m.From, m.To, kindCommit, vote, CSmall)
			e.forged++
			return true, 0
		case *viewChangeMsg:
			// In a vote for an even view it also claims to have run far
			// past the tier, so a new view that took its floor would
			// start beyond everything the correct members ran.
			lie := *p
			lie.Prepared = nil
			if lie.NewView%2 == 0 {
				lie.Floor, lie.Cursor, lie.Executed = p.Floor+farAhead, p.Cursor+farAhead, nil
			}
			e.net.Send(m.From, m.To, m.Kind, &lie, lie.size(1))
			return true, 0
		}
	}
	return e.inner.FilterSend(m, now)
}

// runSchedule runs one schedule and returns its safety violations and
// how many requests clients accepted.
func runSchedule(sched schedule, seed int64, shape searchShape) (violations []string, accepted int) {
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{BaseLatency: 50 * time.Millisecond, LatencyPerUnit: time.Millisecond})
	var members []simnet.NodeID
	for i := 0; i < searchMembers; i++ {
		members = append(members, net.AddNode(float64(10*i), 0).ID)
	}
	var clients []simnet.NodeID
	for i := 0; i < shape.clients; i++ {
		clients = append(clients, net.AddNode(float64(15*i), 30).ID)
	}
	g, err := NewGroup(net, members, 1, guid.Zero)
	if err != nil {
		panic(err)
	}
	logs := make([][]executed, searchMembers)
	for i := range logs {
		g.SetExecutor(i, func(seq uint64, r Request) { logs[i] = append(logs[i], executed{seq, r.ID}) })
	}
	eng := fault.Install(net, sched.plan)
	eq := &equivocator{net: net, inner: eng, members: members, after: sched.equivocateAfter}
	if sched.equivocateAfter > 0 {
		net.SetFaultPlan(eq)
	}
	var prio *pct
	if sched.pctDepth > 0 {
		prio = newPCT(net.Len(), sched.pctDepth, seed)
		net.SetFaultPlan(prio)
	}
	sent := 0
	if sched.crashAfter > 0 {
		net.SetTrace(func(ev simnet.TraceEvent) {
			if ev.Event != "send" || ev.From != members[0] {
				return
			}
			if sent++; sent == sched.crashAfter {
				// Crash-stop: the rest of the handler running this send
				// neither sends (the node is down) nor executes.
				net.Crash(members[0])
				g.SetExecutor(0, nil)
			}
		})
	}
	var results []Result
	for c, client := range clients {
		for j := 0; j < shape.requests; j++ {
			at := time.Duration(j)*searchSpacing + time.Duration(c)*searchSpacing/time.Duration(shape.clients)
			r := req(fmt.Sprintf("client %d request %d", c, j), 64)
			k.At(at, func() {
				g.Submit(client, r, func(res Result) { results = append(results, res) })
			})
		}
	}
	k.RunUntil(searchRun)
	if sent < sched.crashAfter {
		// Not a safety violation, but a crash plan whose crash never
		// fired searched nothing it claims to.
		violations = append(violations, fmt.Sprintf("member 0 sent %d messages and never crashed", sent))
	}
	if sched.equivocateAfter > 0 && eq.forged == 0 {
		violations = append(violations, fmt.Sprintf("member 0 sent %d messages and never equivocated", eq.sent))
	}
	if prio != nil && prio.sent < pctSteps {
		violations = append(violations, fmt.Sprintf("%d sends, too few for every change point to fire", prio.sent))
	}

	// Every member but an equivocating primary is correct: a member that
	// crashes stops, so what it executed before the crash is judged with
	// the rest.  What an equivocator executed is not judged.
	if sched.equivocateAfter > 0 {
		logs[0] = nil
	}
	at := make([]map[uint64]guid.GUID, searchMembers)
	for i, log := range logs {
		at[i] = make(map[uint64]guid.GUID, len(log))
		for _, e := range log {
			at[i][e.seq] = e.digest
		}
	}
	for i := range logs {
		for j := i + 1; j < len(logs); j++ {
			short, long := logs[i], logs[j]
			if len(short) > len(long) {
				short, long = long, short
			}
			for p, e := range short {
				if long[p] != e {
					violations = append(violations, fmt.Sprintf("members %d and %d diverge at execution %d: seq %d %s vs seq %d %s",
						i, j, p, logs[i][p].seq, logs[i][p].digest.Short(), logs[j][p].seq, logs[j][p].digest.Short()))
					break
				}
			}
			for seq, d := range at[i] {
				if dj, ok := at[j][seq]; ok && dj != d {
					violations = append(violations, fmt.Sprintf("members %d and %d executed different digests at seq %d: %s vs %s",
						i, j, seq, d.Short(), dj.Short()))
				}
			}
		}
	}
	for _, res := range results {
		for i := range at {
			if d, ok := at[i][res.Seq]; ok && d != res.ID {
				violations = append(violations, fmt.Sprintf("accepted %s at seq %d, but member %d executed %s there",
					res.ID.Short(), res.Seq, i, d.Short()))
			}
		}
	}
	return violations, len(results)
}

// searchPlans is every plan: the reorder, view-change, primary-crash,
// equivocation (fault-free, under 50 ms of jitter and under 10 % loss)
// and PCT plans.
func searchPlans() []schedule {
	return slices.Concat(reorderPlans(), viewChangePlans(), crashPlans(),
		equivocationPlans(*fault.NewPlan("fault-free")),
		equivocationPlans(*fault.NewPlan("jitter-50ms").Jitter(0, 50*time.Millisecond)),
		equivocationPlans(*fault.NewPlan("drop-10%").Drop(0.1)),
		pctPlans())
}

// TestScheduleSearch sweeps every plan over a fixed seed range — the
// in-suite slice — or, with -schedules N, over N seeds, reporting each
// violating schedule.
func TestScheduleSearch(t *testing.T) {
	n, plans := 500, searchPlans()
	if *schedules > 0 {
		n = *schedules
	}
	type outcome struct {
		violations []string
		accepted   int
	}
	out := par.Map(len(plans)*n, func(i int) outcome {
		v, a := runSchedule(plans[i/n], int64(i%n+1), fullShape)
		return outcome{v, a}
	})
	bad := map[string]int{}
	accepted := 0
	for i, o := range out {
		accepted += o.accepted
		if len(o.violations) == 0 {
			continue
		}
		name, seed := plans[i/n].name(), i%n+1
		bad[name]++
		t.Errorf("plan %s seed %d: %d violations, first: %s", name, seed, len(o.violations), o.violations[0])
	}
	for _, p := range plans {
		t.Logf("plan %s: %d of %d schedules violating", p.name(), bad[p.name()], n)
	}
	t.Logf("%d of %d requests accepted", accepted, len(out)*fullShape.clients*fullShape.requests)
	if accepted == 0 {
		t.Fatal("no client accepted a result: the search exercised nothing")
	}
}

// TestShrunkLossSchedule is the smallest violating schedule the long
// sweep found while a new view recycled every slot a member had not
// committed: one client's two requests under 10 % loss, seed 56.
// Member 2 executed the first request at sequence number 0, where the
// other three executed the second, which the client accepted there.
func TestShrunkLossSchedule(t *testing.T) {
	sched := schedule{plan: *fault.NewPlan("drop-10%").Drop(0.1)}
	v, accepted := runSchedule(sched, 56, searchShape{clients: 1, requests: 2})
	if len(v) > 0 {
		t.Fatalf("%d violations, first: %s", len(v), v[0])
	}
	if accepted == 0 {
		t.Fatal("the client accepted nothing")
	}
}
