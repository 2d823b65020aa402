package byz

import (
	"testing"
	"time"

	"oceanstore/internal/guid"
)

func TestCascadedViewChanges(t *testing.T) {
	// Primaries of view 0 AND view 1 are dead: liveness requires two
	// successive view changes before view 2's primary commits.
	k, net, g, client := tier(t, 7, 2, 40)
	order := record(g)
	net.Crash(g.nodes[0]) // view 0 primary
	net.Crash(g.nodes[1]) // view 1 primary
	if p := g.Primary(); p != g.nodes[0] {
		t.Fatalf("a fresh request goes to node %d, want view 0's primary %d", p, g.nodes[0])
	}
	var res *Result
	g.Submit(client, req("double-crash", 1000), func(r Result) { res = &r })
	k.RunFor(3 * time.Minute)
	if res == nil {
		t.Fatal("two cascaded view changes did not recover liveness")
	}
	if p := g.Primary(); p != g.nodes[2] {
		t.Fatalf("a fresh request goes to node %d, want view 2's primary %d", p, g.nodes[2])
	}
	// All survivors executed the same update.
	for i := 2; i < 7; i++ {
		ex := order[i]
		if len(ex) != 1 || ex[0] != guid.FromData([]byte("double-crash")) {
			t.Fatalf("replica %d executed %v", i, ex)
		}
	}
}

func TestUpdatesAfterViewChangeKeepSerializing(t *testing.T) {
	k, net, g, client := tier(t, 7, 2, 41)
	order := record(g)
	net.Crash(g.nodes[0])
	done := 0
	for i := 0; i < 3; i++ {
		g.Submit(client, req(string(rune('a'+i)), 500), func(Result) { done++ })
	}
	k.RunFor(3 * time.Minute)
	if done != 3 {
		t.Fatalf("committed %d/3 after view change", done)
	}
	// Order agreement among survivors.
	base := order[1]
	for i := 2; i < 7; i++ {
		ex := order[i]
		if len(ex) != len(base) {
			t.Fatalf("replica %d executed %d, want %d", i, len(ex), len(base))
		}
		for j := range ex {
			if ex[j] != base[j] {
				t.Fatalf("order divergence at %d", j)
			}
		}
	}
}

func TestCrashRecoveryMidStream(t *testing.T) {
	// Primary crashes AFTER some commits; later updates need the view
	// change, and the already-executed prefix stays intact.
	k, net, g, client := tier(t, 7, 2, 42)
	order := record(g)
	first := false
	g.Submit(client, req("early", 500), func(Result) { first = true })
	k.RunFor(10 * time.Second)
	if !first {
		t.Fatal("setup commit failed")
	}
	net.Crash(g.nodes[0])
	second := false
	g.Submit(client, req("late", 500), func(Result) { second = true })
	k.RunFor(3 * time.Minute)
	if !second {
		t.Fatal("post-crash update did not commit")
	}
	for i := 1; i < 7; i++ {
		ex := order[i]
		if len(ex) != 2 || ex[0] != guid.FromData([]byte("early")) || ex[1] != guid.FromData([]byte("late")) {
			t.Fatalf("replica %d executed %v", i, ex)
		}
	}
}
