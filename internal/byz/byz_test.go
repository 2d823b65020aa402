package byz

import (
	"fmt"
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// tier builds a primary tier of n replicas plus one client node, all at
// uniform 100 ms latency (the paper's §4.4.5 WAN assumption).
func tier(t *testing.T, n, f int, seed int64) (*sim.Kernel, *simnet.Network, *Group, simnet.NodeID) {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{BaseLatency: 100 * time.Millisecond})
	var nodes []simnet.NodeID
	for i := 0; i < n; i++ {
		nodes = append(nodes, net.AddNode(0, 0).ID)
	}
	client := net.AddNode(0, 0).ID
	g, err := NewGroup(net, nodes, f)
	if err != nil {
		t.Fatal(err)
	}
	return k, net, g, client
}

func req(name string, size int) Request {
	return Request{ID: guid.FromData([]byte(name)), Payload: name, Size: size}
}

func TestGeometryValidation(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{})
	var nodes []simnet.NodeID
	for i := 0; i < 4; i++ {
		nodes = append(nodes, net.AddNode(0, 0).ID)
	}
	if _, err := NewGroup(net, nodes, 2); err == nil {
		t.Fatal("4 replicas accepted f=2")
	}
	if _, err := NewGroup(net, nodes, -1); err == nil {
		t.Fatal("negative f accepted")
	}
	if g, err := NewGroup(net, nodes, 1); err != nil || g.N() != 4 || g.F() != 1 {
		t.Fatalf("valid group rejected: %v", err)
	}
}

func TestCommitHappyPath(t *testing.T) {
	k, _, g, client := tier(t, 4, 1, 2)
	var res *Result
	g.Submit(client, req("u1", 1000), func(r Result) { res = &r })
	k.RunFor(5 * time.Second)
	if res == nil || !res.Committed {
		t.Fatal("update did not commit")
	}
	// All honest replicas executed the same single request.
	for i := 0; i < 4; i++ {
		ex := g.Executed(i)
		if len(ex) != 1 || ex[0] != guid.FromData([]byte("u1")) {
			t.Fatalf("replica %d executed %v", i, ex)
		}
	}
}

func TestSixPhaseLatencyUnderOneSecond(t *testing.T) {
	// §4.4.5: "six phases of messages ... assuming each message takes
	// 100ms, we have an approximate latency per update of less than a
	// second."  Our path is request → pre-prepare → prepare → commit →
	// reply = 5 × 100 ms.
	for _, nf := range [][2]int{{7, 2}, {10, 3}, {13, 4}} {
		k, _, g, client := tier(t, nf[0], nf[1], 3)
		var res *Result
		g.Submit(client, req("u", 4096), func(r Result) { res = &r })
		k.RunFor(5 * time.Second)
		if res == nil {
			t.Fatalf("n=%d: no commit", nf[0])
		}
		if res.Latency >= time.Second {
			t.Fatalf("n=%d: latency %v >= 1s", nf[0], res.Latency)
		}
		if res.Latency < 400*time.Millisecond {
			t.Fatalf("n=%d: latency %v implausibly low for 100ms links", nf[0], res.Latency)
		}
	}
}

func TestSerializationAgreesAcrossReplicas(t *testing.T) {
	k, _, g, client := tier(t, 7, 2, 4)
	done := 0
	for i := 0; i < 10; i++ {
		g.Submit(client, req(string(rune('a'+i)), 500), func(Result) { done++ })
	}
	k.RunFor(20 * time.Second)
	if done != 10 {
		t.Fatalf("committed %d/10", done)
	}
	base := g.Executed(0)
	if len(base) != 10 {
		t.Fatalf("replica 0 executed %d", len(base))
	}
	for i := 1; i < 7; i++ {
		ex := g.Executed(i)
		if len(ex) != len(base) {
			t.Fatalf("replica %d executed %d, want %d", i, len(ex), len(base))
		}
		for j := range ex {
			if ex[j] != base[j] {
				t.Fatalf("replica %d diverges at %d", i, j)
			}
		}
	}
}

func TestExecutorRunsInOrder(t *testing.T) {
	k, _, g, client := tier(t, 4, 1, 5)
	var seqs []uint64
	g.SetExecutor(2, func(seq uint64, r Request) { seqs = append(seqs, seq) })
	for i := 0; i < 5; i++ {
		g.Submit(client, req(string(rune('a'+i)), 100), nil)
	}
	k.RunFor(10 * time.Second)
	if len(seqs) != 5 {
		t.Fatalf("executor ran %d times", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("execution order %v", seqs)
		}
	}
}

func TestToleratesFCrashedBackups(t *testing.T) {
	k, _, g, client := tier(t, 7, 2, 6)
	g.SetFault(3, Crashed)
	g.SetFault(5, Crashed)
	var res *Result
	g.Submit(client, req("u", 1000), func(r Result) { res = &r })
	k.RunFor(10 * time.Second)
	if res == nil {
		t.Fatal("did not commit with f crashed backups")
	}
}

func TestToleratesFLyingReplicas(t *testing.T) {
	k, _, g, client := tier(t, 7, 2, 7)
	g.SetFault(2, Lying)
	g.SetFault(6, Lying)
	var res *Result
	g.Submit(client, req("u", 1000), func(r Result) { res = &r })
	k.RunFor(10 * time.Second)
	if res == nil {
		t.Fatal("did not commit with f lying replicas")
	}
	if res.ID != guid.FromData([]byte("u")) {
		t.Fatal("client accepted a corrupted result")
	}
	// Honest replicas executed the true request.
	for _, i := range []int{0, 1, 3, 4, 5} {
		ex := g.Executed(i)
		if len(ex) != 1 || ex[0] != guid.FromData([]byte("u")) {
			t.Fatalf("replica %d executed %v", i, ex)
		}
	}
}

func TestMoreThanFCrashedStalls(t *testing.T) {
	k, _, g, client := tier(t, 4, 1, 8)
	// Crash 2 > f=1 backups: no 2f+1 quorum can form.
	g.SetFault(1, Crashed)
	g.SetFault(2, Crashed)
	committed := false
	g.Submit(client, req("u", 1000), func(Result) { committed = true })
	k.RunFor(30 * time.Second)
	if committed {
		t.Fatal("committed beyond the fault bound")
	}
}

func TestViewChangeOnCrashedPrimary(t *testing.T) {
	k, _, g, client := tier(t, 7, 2, 9)
	g.SetFault(0, Crashed) // view 0's primary
	var res *Result
	g.Submit(client, req("u", 1000), func(r Result) { res = &r })
	k.RunFor(60 * time.Second)
	if res == nil {
		t.Fatal("view change did not recover liveness")
	}
	// Surviving replicas agree on execution.
	var base []guid.GUID
	for i := 1; i < 7; i++ {
		ex := g.Executed(i)
		if len(ex) == 0 {
			t.Fatalf("replica %d executed nothing", i)
		}
		if base == nil {
			base = ex
			continue
		}
		if len(ex) != len(base) || ex[0] != base[0] {
			t.Fatalf("divergence after view change: %v vs %v", ex, base)
		}
	}
}

func TestFigure6CostModel(t *testing.T) {
	// Measured bytes must follow b = Θ(n²)·c1 + (u+c2)·n: for small u
	// the n² term dominates (normalized cost >> 1); for large u the
	// normalized cost approaches a small constant.
	norm := func(n, f, u int) float64 {
		k, net, g, client := tier(t, n, f, 10)
		net.ResetStats()
		done := false
		g.Submit(client, req("u", u), func(Result) { done = true })
		k.RunFor(10 * time.Second)
		if !done {
			t.Fatalf("n=%d u=%d did not commit", n, u)
		}
		return float64(net.Stats().BytesSent) / float64(u*n)
	}
	smallU := norm(13, 4, 100)
	largeU := norm(13, 4, 1<<20)
	if smallU < 3 {
		t.Fatalf("small update normalized cost %.2f; n² term missing", smallU)
	}
	if largeU > 1.5 {
		t.Fatalf("large update normalized cost %.2f; should approach 1", largeU)
	}
	if smallU <= largeU {
		t.Fatal("normalized cost must decrease with update size")
	}
}

func TestByteAccountingByKind(t *testing.T) {
	k, net, g, client := tier(t, 4, 1, 11)
	net.ResetStats()
	g.Submit(client, req("u", 1000), nil)
	k.RunFor(5 * time.Second)
	s := net.Stats()
	if s.ByKind[kindPrePrepare] == 0 || s.ByKind[kindPrepare] == 0 ||
		s.ByKind[kindCommit] == 0 || s.ByKind[kindReply] == 0 || s.ByKind[kindRequest] == 0 {
		t.Fatalf("missing protocol phases in accounting: %v", s.ByKind)
	}
	// Prepare traffic: each of the n-1 backups broadcasts to n-1 peers.
	wantPrepare := int64(3 * 3 * CSmall)
	if s.ByKind[kindPrepare] != wantPrepare {
		t.Fatalf("prepare bytes = %d, want %d", s.ByKind[kindPrepare], wantPrepare)
	}
}

func TestDuplicateSubmitIgnored(t *testing.T) {
	k, _, g, client := tier(t, 4, 1, 12)
	count := 0
	r := req("dup", 500)
	g.Submit(client, r, func(Result) { count++ })
	k.RunFor(5 * time.Second)
	g.Submit(client, r, func(Result) { count++ })
	k.RunFor(5 * time.Second)
	if len(g.Executed(1)) != 1 {
		t.Fatalf("duplicate executed: %v", g.Executed(1))
	}
	if count != 1 {
		t.Fatalf("callbacks fired %d times", count)
	}
}

// slotCount is how many sequence numbers the replica holds agreement
// state for, in the window and outside it.
func (r *replica) slotCount() int {
	n := len(r.far)
	for _, s := range r.window {
		if s != nil {
			n++
		}
	}
	return n
}

func TestCheckpointTruncatesLog(t *testing.T) {
	k, _, g, client := tier(t, 4, 1, 13)
	const total = checkpointWindow + 40
	done := 0
	for i := 0; i < total; i++ {
		g.Submit(client, req(fmt.Sprintf("u%d", i), 100), func(Result) { done++ })
		k.RunFor(2 * time.Second)
	}
	k.RunFor(time.Minute)
	if done != total {
		t.Fatalf("committed %d/%d", done, total)
	}
	// Agreement state is bounded: old slots were garbage collected.
	for i := 0; i < 4; i++ {
		if n := g.replicas[i].slotCount(); n > checkpointWindow+8 {
			t.Fatalf("replica %d retains %d slots (window %d)", i, n, checkpointWindow)
		}
	}
	// Execution history remains complete and ordered.
	ex := g.Executed(0)
	if len(ex) != total {
		t.Fatalf("executed %d", len(ex))
	}
}
