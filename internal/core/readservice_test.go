package core

import (
	"testing"
	"time"

	"oceanstore/internal/replica"
	"oceanstore/internal/workload"
)

// queuedReadWorld is a 32-node soak world whose reads are networked,
// each server taking 20 ms over one, run to a quiet moment: construction
// traffic delivered, and 10 s past a 30 s gossip round.
func queuedReadWorld(t *testing.T, secondaries int) *SoakWorld {
	t.Helper()
	cfg := DefaultSoakConfig(32)
	cfg.Secondaries = secondaries
	cfg.Clients = 32
	cfg.ReadService = 20 * time.Millisecond
	w, err := NewSoakWorld(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Pool.Run(2*time.Minute + 10*time.Second)
	return w
}

// outsider returns a client whose node neither serves ring's object
// nor is a member of its primary tier, so its reads cross the network.
func outsider(t *testing.T, w *SoakWorld, ring *replica.Ring) int {
	t.Helper()
	for c, s := range w.sessions {
		if _, sec := ring.Secondary(s.c.Node); !sec && !ring.IsPrimary(s.c.Node) {
			return c
		}
	}
	t.Fatal("setup: every client sits on a server of the object")
	return 0
}

// readOn sends one soak read of object idx from client c and returns a
// pointer to its outcome: 0 pending, 1 ok, -1 failed, and the virtual
// time it resolved.
func readOn(t *testing.T, w *SoakWorld, c, idx int) (*int, *time.Duration) {
	t.Helper()
	outcome, at := new(int), new(time.Duration)
	err := w.Do(workload.Request{Client: c, Kind: workload.OpRead, Object: idx}, func(ok bool) {
		*outcome, *at = -1, w.Pool.K.Now()
		if ok {
			*outcome = 1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return outcome, at
}

// TestReadRetriesPastACrashedServer: the server a read booked crashes
// right after the request leaves.  The read must not be answered by the
// crashed node; it completes from another replica after exactly one
// retried request, and leaves nothing in flight.
func TestReadRetriesPastACrashedServer(t *testing.T) {
	w := queuedReadWorld(t, 4)
	ring, _ := w.Pool.Ring(w.objects[0])
	before := w.Pool.Net.Stats().RetriesByKind[KindReadReq]
	client := outsider(t, w, ring)
	outcome, _ := readOn(t, w, client, 0)
	// The chooser counts one read on the secondary it booked.
	var booked *replica.Secondary
	for _, sec := range ring.Secondaries() {
		if sec.Reads == 1 {
			booked = sec
		}
	}
	if booked == nil {
		t.Fatal("the read booked no floating replica")
	}
	w.Pool.Net.Crash(booked.Node)
	w.Pool.Run(10 * time.Second)
	if *outcome != 1 {
		t.Fatalf("read outcome %d after the booked server crashed, want ok", *outcome)
	}
	if got := w.Pool.Net.Stats().RetriesByKind[KindReadReq] - before; got != 1 {
		t.Fatalf("%d read requests retried, want 1", got)
	}
	if probs := w.Problems(); len(probs) != 0 {
		t.Fatalf("problems after the read: %q", probs)
	}
}

// TestReadQueueOverMessages: on an idle world a read takes one round
// trip plus one service time; a second read booked behind it on the
// same server finishes one service time later; and once both resolve,
// neither a retry nor a deadline timer is left in the kernel.
func TestReadQueueOverMessages(t *testing.T) {
	// One floating replica, on the primary anchor: every read's first
	// server is the anchor.
	w := queuedReadWorld(t, 1)
	ring, _ := w.Pool.Ring(w.objects[0])
	server := ring.PrimaryAnchor()
	client := outsider(t, w, ring)
	node := w.sessions[client].c.Node
	pending := w.Pool.K.Pending()
	start := w.Pool.K.Now()
	first, firstAt := readOn(t, w, client, 0)
	second, secondAt := readOn(t, w, client, 0)
	w.Pool.Run(time.Second)
	if *first != 1 || *second != 1 {
		t.Fatalf("read outcomes %d and %d, want both ok", *first, *second)
	}
	lat, svc := w.Pool.Net.Latency(node, server), w.cfg.ReadService
	if got, want := *firstAt-start, 2*lat+svc; got != want {
		t.Fatalf("first read took %v, want 2 x %v + %v = %v", got, lat, svc, want)
	}
	if got := *secondAt - *firstAt; got != svc {
		t.Fatalf("second read finished %v after the first, want one service time, %v", got, svc)
	}
	if got := w.Pool.K.Pending(); got != pending {
		t.Fatalf("%d events pending after both reads, %d before", got, pending)
	}
}
