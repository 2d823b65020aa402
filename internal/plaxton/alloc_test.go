package plaxton

import (
	"testing"

	"oceanstore/internal/simnet"
)

// TestHopMessageZeroAlloc pins the hop-forwarding fabric: sending a
// hop (pooled *hopMsg payload, pooled simnet envelope) and delivering
// it through the router's network-wide handler must not allocate once
// the pools are warm.  Hops dominate message volume, so this is the
// router's hottest path.  The
// probe uses a stale route id — the handler reads the payload,
// reclaims it, and drops the hop — which exercises exactly the
// messaging machinery without the per-route bookkeeping.
func TestHopMessageZeroAlloc(t *testing.T) {
	rig := newRouterRig(t, 16, 3, RouterConfig{}, 0)
	send := func() {
		rig.net.Send(simnet.NodeID(0), simnet.NodeID(1), KindHop, rig.r.getHop(999, 1), hopWire)
		rig.k.Run()
	}
	for i := 0; i < 8; i++ {
		send() // warm the hop and envelope pools
	}
	allocs := testing.AllocsPerRun(100, func() { send() })
	if allocs != 0 {
		t.Fatalf("hop send+deliver allocated %.1f per hop, want 0", allocs)
	}
}
