package plaxton

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// routerRig is a mesh laid over a simulated network: mesh index i is
// simnet.NodeID(i), distances come from the network plane.
type routerRig struct {
	k   *sim.Kernel
	net *simnet.Network
	m   *Mesh
	r   *Router
}

// drop is the network's per-message loss probability; building the rig
// sends nothing, so routes see it from their first hop.
func newRouterRig(t *testing.T, n int, seed int64, cfg RouterConfig, drop float64) *routerRig {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{BaseLatency: 5 * time.Millisecond, DropProb: drop})
	net.AddRandomNodes(n, 100, 4)
	rng := rand.New(rand.NewSource(seed))
	ids := make([]guid.GUID, n)
	for i := range ids {
		ids[i] = guid.Random(rng)
	}
	m := New(ids, func(a, b int) float64 {
		return net.Distance(simnet.NodeID(a), simnet.NodeID(b))
	})
	return &routerRig{k: k, net: net, m: m, r: NewRouter(m, net, cfg)}
}

func TestRouterMatchesSyncRoute(t *testing.T) {
	rig := newRouterRig(t, 64, 1, RouterConfig{}, 0)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := guid.Random(rng)
		start := rng.Intn(64)
		want, err := rig.m.RouteToRoot(start, g)
		if err != nil {
			t.Fatal(err)
		}
		var got RouteResult
		fired := false
		rig.r.RouteToRoot(start, g, time.Minute, func(res RouteResult, err error) {
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			got, fired = res, true
		})
		rig.k.Run()
		if !fired {
			t.Fatalf("trial %d: callback never fired", trial)
		}
		if !reflect.DeepEqual(got.Path, want.Path) {
			t.Fatalf("trial %d: async path %v != sync path %v", trial, got.Path, want.Path)
		}
	}
}

func TestRouterRetriesThroughLoss(t *testing.T) {
	rig := newRouterRig(t, 64, 3, RouterConfig{HopTimeout: 100 * time.Millisecond}, 0.3)
	rng := rand.New(rand.NewSource(4))
	done := 0
	for trial := 0; trial < 10; trial++ {
		rig.r.RouteToRoot(rng.Intn(64), guid.Random(rng), 2*time.Minute, func(res RouteResult, err error) {
			if err != nil {
				t.Fatalf("route failed under 30%% loss: %v", err)
			}
			done++
		})
	}
	rig.k.Run()
	if done != 10 {
		t.Fatalf("completed %d/10 routes", done)
	}
	if s := rig.net.Stats(); s.RetriesByKind[KindHop] == 0 {
		t.Fatal("expected hop retries under 30% loss")
	}
	if rig.r.Inflight() != 0 {
		t.Fatalf("%d routes still inflight after Run", rig.r.Inflight())
	}
}

// TestRouterFailsOverToBackups crashes a route's first hop on the
// network only (the mesh has not noticed), so the router must time out
// and fall over to a backup link.
func TestRouterFailsOverToBackups(t *testing.T) {
	rig := newRouterRig(t, 64, 5, RouterConfig{HopTimeout: 50 * time.Millisecond}, 0)
	rng := rand.New(rand.NewSource(6))
	routed := 0
	for trial := 0; trial < 20; trial++ {
		g := guid.Random(rng)
		start := rng.Intn(64)
		sync, err := rig.m.RouteToRoot(start, g)
		if err != nil || sync.Hops() == 0 {
			continue
		}
		firstHop := simnet.NodeID(sync.Path[1])
		rig.net.Crash(firstHop)
		rig.r.RouteToRoot(start, g, time.Minute, func(res RouteResult, err error) {
			if err != nil {
				t.Fatalf("trial %d: no failover around crashed hop: %v", trial, err)
			}
			for _, idx := range res.Path {
				if simnet.NodeID(idx) == firstHop {
					t.Fatalf("trial %d: path %v goes through crashed node %d", trial, res.Path, firstHop)
				}
			}
			routed++
		})
		rig.k.Run()
		rig.net.Recover(firstHop)
	}
	if routed == 0 {
		t.Fatal("no trials exercised failover")
	}
	if s := rig.net.Stats(); s.RetriesByKind[KindHop] == 0 {
		t.Fatal("failover should be visible as hop retries")
	}
}

// TestRouterTerminatesWhenUnreachable is the liveness invariant: with
// every message dropped, every route must still error out by its
// deadline rather than hang virtual time.
func TestRouterTerminatesWhenUnreachable(t *testing.T) {
	rig := newRouterRig(t, 32, 7, RouterConfig{HopTimeout: 100 * time.Millisecond, HopAttempts: 3}, 1.0)
	rng := rand.New(rand.NewSource(8))
	var errs int
	for trial := 0; trial < 5; trial++ {
		g := guid.Random(rng)
		start := rng.Intn(32)
		if sync, err := rig.m.RouteToRoot(start, g); err != nil || sync.Hops() == 0 {
			continue
		}
		rig.r.RouteToRoot(start, g, 30*time.Second, func(res RouteResult, err error) {
			if err == nil {
				t.Fatalf("trial %d: route succeeded with 100%% loss and hops > 0", trial)
			}
			if !errors.Is(err, ErrRouteTimeout) {
				t.Fatalf("trial %d: want ErrRouteTimeout, got %v", trial, err)
			}
			errs++
		})
	}
	rig.k.Run()
	if errs == 0 {
		t.Fatal("no trials exercised the unreachable case")
	}
	if rig.r.Inflight() != 0 {
		t.Fatalf("%d routes leaked", rig.r.Inflight())
	}
	if rig.k.Now() > 31*time.Second {
		t.Fatalf("virtual time ran to %v; routes did not respect deadlines", rig.k.Now())
	}
}

func TestRouterPublishLocate(t *testing.T) {
	rig := newRouterRig(t, 64, 9, RouterConfig{}, 0)
	rig.m.Salts = 3
	rig.m.PointerTTL = time.Hour
	rng := rand.New(rand.NewSource(10))
	g := guid.Random(rng)
	holder := 11

	published := false
	rig.r.Publish(holder, g, time.Minute, func(hops int, err error) {
		if err != nil {
			t.Fatalf("publish: %v", err)
		}
		if hops == 0 {
			t.Fatal("publish deposited no pointers")
		}
		published = true
	})
	rig.k.Run()
	if !published {
		t.Fatal("publish callback never fired")
	}

	located := false
	rig.r.Locate(40, g, time.Minute, func(res LocateResult, err error) {
		if err != nil {
			t.Fatalf("locate: %v", err)
		}
		if res.Holder != holder {
			t.Fatalf("locate found holder %d, want %d", res.Holder, holder)
		}
		located = true
	})
	rig.k.Run()
	if !located {
		t.Fatal("locate callback never fired")
	}

	// Locating an unpublished object must terminate with ErrNotFound,
	// not hang.
	missing := guid.Random(rng)
	var missErr error
	rig.r.Locate(40, missing, time.Minute, func(res LocateResult, err error) { missErr = err })
	rig.k.Run()
	if !errors.Is(missErr, ErrNotFound) && !errors.Is(missErr, ErrRouteTimeout) {
		t.Fatalf("locate of unpublished object: %v", missErr)
	}
}

func TestRouterLocateSurvivesLoss(t *testing.T) {
	rig := newRouterRig(t, 64, 11, RouterConfig{HopTimeout: 100 * time.Millisecond}, 0.3)
	rig.m.Salts = 3
	rig.m.PointerTTL = time.Hour
	rng := rand.New(rand.NewSource(12))
	g := guid.Random(rng)
	rig.m.Publish(7, g, 0) // seed pointers synchronously
	found := false
	rig.r.Locate(50, g, 5*time.Minute, func(res LocateResult, err error) {
		if err != nil {
			t.Fatalf("locate under loss: %v", err)
		}
		if res.Holder != 7 {
			t.Fatalf("holder %d, want 7", res.Holder)
		}
		found = true
	})
	rig.k.Run()
	if !found {
		t.Fatal("locate callback never fired")
	}
}
