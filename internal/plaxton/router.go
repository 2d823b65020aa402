package plaxton

import (
	"errors"
	"fmt"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/obs"
	"oceanstore/internal/simnet"
)

// This file is the asynchronous, failure-surviving face of the mesh.
// Mesh.RouteToRoot walks routing tables as pure data structure — the
// steady-state the paper's §4.3.3 analysis assumes.  The Router runs
// the same surrogate walk as messages over the simulated network, so
// hops pay latency, ride through fault plans, and can be lost.  What
// makes it survive: every hop has a virtual-time timeout, a timed-out
// hop retries with capped exponential backoff, retries fall over to
// backup neighbour links (§4.3.3 "additional neighbor links"), and an
// overall deadline guarantees the route terminates or errors — it can
// never hang virtual time, which is one of the chaos harness's
// invariants.

// Wire kinds (simnet accounting tags).
const (
	KindHop = "plax-hop"
	// hopWire is the modeled size of a hop message: target GUID plus
	// routing state.
	hopWire = guid.Size + 28
)

// RouterConfig tunes the retry machinery.
type RouterConfig struct {
	// HopTimeout is the first attempt's ack window; each retry doubles
	// it up to backoffCapFactor times this.
	HopTimeout time.Duration
	// HopAttempts is the attempt budget per hop (across candidates)
	// before the route fails over to an error.
	HopAttempts int
}

// backoffCapFactor bounds the exponential backoff at this many
// HopTimeouts (4 s at the default 500 ms).
const backoffCapFactor = 8

// DefaultRouterConfig matches WAN latencies: first retry after 500 ms,
// backoff capped at 4 s, 8 attempts per hop.
func DefaultRouterConfig() RouterConfig {
	return RouterConfig{HopTimeout: 500 * time.Millisecond, HopAttempts: 8}
}

// ErrRouteTimeout is returned when a route exhausts its deadline or a
// hop exhausts its attempt budget.
var ErrRouteTimeout = errors.New("plaxton: route timed out")

// hopMsg rides the wire as a *pointer* payload: hops dominate message
// volume, and a pointer in an interface avoids the per-send boxing
// allocation a value payload pays.  Messages are pooled — onHop
// reclaims each one after reading its fields (stale or not), and the
// few lost to drops are simply collected and replaced by fresh
// allocations.  A hopMsg is immutable from Send to delivery.
type hopMsg struct {
	RID uint64
	Gen uint64
}

type routeMode int

const (
	modeRoute routeMode = iota
	modePublish
	modeLocate
)

func (m routeMode) label() string {
	switch m {
	case modePublish:
		return "publish"
	case modeLocate:
		return "locate"
	}
	return "route"
}

type routeState struct {
	target   guid.GUID
	object   guid.GUID // unsalted GUID (pointer key for publish/locate)
	mode     routeMode
	rid      uint64
	cur      int
	level    int
	attempt  int
	gen      uint64
	path     []int
	distance float64
	done     bool
	started  time.Duration
	deadline time.Duration
	onRoute  func(RouteResult, error)
	onLocate func(LocateResult, error)
}

// Router drives mesh traversals over a simulated network.  Mesh node
// index i must correspond to simnet.NodeID(i), the convention the core
// pool establishes.
type Router struct {
	m      *Mesh
	net    *simnet.Network
	cfg    RouterConfig
	nextID uint64
	routes map[uint64]*routeState
	hooked map[int]bool

	hopFree []*hopMsg // reclaimed hop payloads; see hopMsg

	om  routerMetrics
	otr *obs.Tracer
}

// routerMetrics holds the router's pre-resolved obs handles.
type routerMetrics struct {
	routesOK, routesFail *obs.Counter
	hopRetries           *obs.Counter   // failover/backoff re-sends
	hops                 *obs.Histogram // hop count per successful route
	latency              *obs.Histogram // virtual ns per successful route
}

// Instrument attaches observability: route outcome counters, a hop
// histogram, a latency histogram, failover counters (layer "plaxton"),
// and per-route trace events carrying the hop path.
func (r *Router) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	r.otr = tr
	r.om = routerMetrics{
		routesOK:   reg.Counter(obs.NodeWide, "plaxton", "routes_ok"),
		routesFail: reg.Counter(obs.NodeWide, "plaxton", "routes_fail"),
		hopRetries: reg.Counter(obs.NodeWide, "plaxton", "hop_retries"),
		hops:       reg.Histogram(obs.NodeWide, "plaxton", "route_hops"),
		latency:    reg.Histogram(obs.NodeWide, "plaxton", "route_latency_ns"),
	}
}

// NewRouter builds a router over the mesh and network.
func NewRouter(m *Mesh, net *simnet.Network, cfg RouterConfig) *Router {
	if cfg.HopTimeout <= 0 {
		cfg.HopTimeout = DefaultRouterConfig().HopTimeout
	}
	if cfg.HopAttempts <= 0 {
		cfg.HopAttempts = DefaultRouterConfig().HopAttempts
	}
	return &Router{m: m, net: net, cfg: cfg, routes: make(map[uint64]*routeState), hooked: make(map[int]bool)}
}

// hook lazily installs the hop handler on a node the first time a
// route can land there.
func (r *Router) hook(idx int) {
	if r.hooked[idx] {
		return
	}
	r.hooked[idx] = true
	r.net.Node(simnet.NodeID(idx)).Handle(func(m simnet.Message) {
		if m.Kind != KindHop {
			return
		}
		if h, ok := m.Payload.(*hopMsg); ok {
			rid, gen := h.RID, h.Gen
			r.putHop(h)
			r.onHop(idx, rid, gen)
		}
	})
}

// RouteToRoot routes from start toward g's surrogate root over the
// network.  cb fires exactly once: with the traversed path on arrival,
// or with an error once the deadline or a hop's attempt budget is
// exhausted.
func (r *Router) RouteToRoot(start int, g guid.GUID, deadline time.Duration, cb func(RouteResult, error)) {
	r.begin(&routeState{target: g, object: g, mode: modeRoute, onRoute: cb}, start, deadline)
}

// Publish walks from holder toward each salted root, depositing a
// location pointer at every node actually reached — the asynchronous
// form of Mesh.Publish.  cb reports the hops deposited and the first
// error (nil when every salted tree was walked to its root).
func (r *Router) Publish(holder int, g guid.GUID, deadline time.Duration, cb func(hops int, err error)) {
	salts := int(r.m.Salts)
	if salts < 1 {
		salts = 1
	}
	hops, pending := 0, salts
	var firstErr error
	for s := 0; s < salts; s++ {
		r.begin(&routeState{
			target: r.m.salted(g, uint32(s)),
			object: g,
			mode:   modePublish,
			onRoute: func(res RouteResult, err error) {
				hops += res.Hops()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if pending--; pending == 0 {
					cb(hops, firstErr)
				}
			},
		}, holder, deadline)
	}
}

// Locate climbs from start toward g's root over the network until it
// reaches a node holding a fresh location pointer, then reports the
// closest live holder — the asynchronous form of Mesh.Locate.  Salted
// trees are tried in sequence, each with its own deadline slice.
func (r *Router) Locate(start int, g guid.GUID, deadline time.Duration, cb func(LocateResult, error)) {
	salts := int(r.m.Salts)
	if salts < 1 {
		salts = 1
	}
	r.locateSalt(start, g, 0, salts, deadline/time.Duration(salts), cb)
}

func (r *Router) locateSalt(start int, g guid.GUID, salt, salts int, slice time.Duration, cb func(LocateResult, error)) {
	r.begin(&routeState{
		target: r.m.salted(g, uint32(salt)),
		object: g,
		mode:   modeLocate,
		onLocate: func(res LocateResult, err error) {
			if err == nil {
				res.Salt = uint32(salt)
				cb(res, nil)
				return
			}
			if salt+1 < salts {
				r.locateSalt(start, g, salt+1, salts, slice, cb)
				return
			}
			cb(LocateResult{}, err)
		},
	}, start, slice)
}

func (r *Router) begin(st *routeState, start int, deadline time.Duration) {
	if start < 0 || start >= len(r.m.nodes) || r.m.nodes[start].Down {
		r.finish(st, fmt.Errorf("plaxton: start node %d unavailable", start))
		return
	}
	rid := r.nextID
	r.nextID++
	r.routes[rid] = st
	st.rid = rid
	st.cur = start
	st.path = []int{start}
	st.started = r.net.K.Now()
	st.deadline = r.net.K.Now() + deadline
	if r.otr != nil {
		r.otr.Emit(obs.Event{
			T: int64(r.net.K.Now()), Node: start, Peer: -1,
			Layer: "plaxton", Event: "route-begin", ID: rid, Kind: st.mode.label(),
		})
	}
	// The hard deadline: a route either finishes or errors by here.
	r.net.K.After(deadline, func() {
		if !st.done {
			delete(r.routes, rid)
			r.finish(st, ErrRouteTimeout)
		}
	})
	r.arrive(rid, st)
}

// arrive runs the per-node work (pointer deposit or pointer check) and
// steps the route forward.
func (r *Router) arrive(rid uint64, st *routeState) {
	switch st.mode {
	case modePublish:
		r.m.depositPointer(st.cur, st.object, st.path[0], r.net.K.Now())
	case modeLocate:
		if holder, ok := r.m.freshHolder(st.cur, st.object, r.net.K.Now()); ok {
			r.complete(rid, st, holder)
			return
		}
	}
	r.step(rid, st)
}

// step resolves levels in place until a network hop is needed, then
// launches the first attempt.
func (r *Router) step(rid uint64, st *routeState) {
	for st.level < r.m.levels {
		cands := r.m.HopCandidates(st.cur, st.target, st.level, 1)
		if len(cands) == 0 || cands[0] == st.cur {
			st.level++ // resolved in place (or digit has no entries at all)
			continue
		}
		st.attempt = 0
		r.attempt(rid, st)
		return
	}
	r.complete(rid, st, -1)
}

// attempt sends the hop to the best not-yet-exhausted candidate and
// arms the retry timer.
func (r *Router) attempt(rid uint64, st *routeState) {
	if st.done {
		return
	}
	if st.attempt >= r.cfg.HopAttempts {
		delete(r.routes, rid)
		r.finish(st, fmt.Errorf("%w: hop budget exhausted at node %d level %d", ErrRouteTimeout, st.cur, st.level))
		return
	}
	// Recompute candidates every attempt: the mesh may have been
	// repaired (or learned of deaths) since the last try.
	cands := r.m.HopCandidates(st.cur, st.target, st.level, r.cfg.HopAttempts)
	if len(cands) == 0 {
		st.level++
		r.step(rid, st)
		return
	}
	next := cands[st.attempt%len(cands)]
	if next == st.cur {
		st.level++
		r.step(rid, st)
		return
	}
	if st.attempt > 0 {
		r.net.NoteRetry(KindHop)
		r.om.hopRetries.Inc()
		if r.otr != nil {
			r.otr.Emit(obs.Event{
				T: int64(r.net.K.Now()), Node: st.cur, Peer: next,
				Layer: "plaxton", Event: "hop-retry", ID: st.rid, Kind: st.mode.label(),
			})
		}
	}
	st.gen++
	gen := st.gen
	r.hook(next)
	r.net.Send(simnet.NodeID(st.cur), simnet.NodeID(next), KindHop, r.getHop(rid, gen), hopWire)

	// Exponential backoff, capped: 1x, 2x, 4x ... of HopTimeout.
	timeout := r.cfg.HopTimeout << uint(st.attempt)
	if limit := backoffCapFactor * r.cfg.HopTimeout; timeout > limit || timeout <= 0 {
		timeout = limit
	}
	r.net.K.After(timeout, func() {
		if st.done || st.gen != gen {
			return // the hop landed (or a newer attempt owns the timer)
		}
		st.attempt++
		r.attempt(rid, st)
	})
}

// getHop takes a hop payload from the pool (or allocates one).
func (r *Router) getHop(rid, gen uint64) *hopMsg {
	if k := len(r.hopFree); k > 0 {
		h := r.hopFree[k-1]
		r.hopFree = r.hopFree[:k-1]
		h.RID, h.Gen = rid, gen
		return h
	}
	return &hopMsg{RID: rid, Gen: gen}
}

// putHop reclaims a delivered hop payload.
func (r *Router) putHop(h *hopMsg) { r.hopFree = append(r.hopFree, h) }

// onHop runs when a hop message lands on a live node: the route
// advances there.
func (r *Router) onHop(at int, rid, gen uint64) {
	st, ok := r.routes[rid]
	if !ok || st.done || st.gen != gen {
		return // stale attempt or finished route
	}
	st.gen++ // invalidate the pending retry timer
	st.distance += r.m.dist(st.cur, at)
	st.cur = at
	st.path = append(st.path, at)
	st.level++
	r.arrive(rid, st)
}

// complete ends a route successfully.  holder >= 0 carries a locate
// hit; -1 means the walk reached the root.
func (r *Router) complete(rid uint64, st *routeState, holder int) {
	delete(r.routes, rid)
	if st.done {
		return
	}
	st.done = true
	r.om.routesOK.Inc()
	r.om.hops.Observe(int64(len(st.path) - 1))
	r.om.latency.ObserveDuration(r.net.K.Now() - st.started)
	if r.otr != nil {
		r.otr.Emit(obs.Event{
			T: int64(r.net.K.Now()), Node: st.cur, Peer: holder,
			Layer: "plaxton", Event: "route-done", ID: rid, Kind: st.mode.label(),
			Path: append([]int(nil), st.path...),
		})
	}
	switch st.mode {
	case modeLocate:
		if holder < 0 {
			// Reached the root without a pointer: the object is not
			// published on this salted tree.
			if st.onLocate != nil {
				st.onLocate(LocateResult{}, ErrNotFound)
			}
			return
		}
		if st.onLocate != nil {
			st.onLocate(LocateResult{
				Holder:   holder,
				Hops:     len(st.path) - 1,
				Distance: st.distance + r.m.dist(st.cur, holder),
			}, nil)
		}
	default:
		if st.onRoute != nil {
			st.onRoute(RouteResult{Path: st.path, Distance: st.distance}, nil)
		}
	}
}

// finish ends a route with an error (or, for modeLocate, routes the
// error to the locate callback).
func (r *Router) finish(st *routeState, err error) {
	if st.done {
		return
	}
	st.done = true
	r.om.routesFail.Inc()
	if r.otr != nil {
		r.otr.Emit(obs.Event{
			T: int64(r.net.K.Now()), Node: st.cur, Peer: -1,
			Layer: "plaxton", Event: "route-fail", ID: st.rid, Kind: st.mode.label(),
			Path: append([]int(nil), st.path...),
		})
	}
	if st.mode == modeLocate {
		if st.onLocate != nil {
			st.onLocate(LocateResult{}, err)
		}
		return
	}
	if st.onRoute != nil {
		st.onRoute(RouteResult{Path: st.path, Distance: st.distance}, err)
	}
}

// Inflight reports how many routes are outstanding — a liveness
// diagnostic: after a deadline has passed on the virtual clock this
// must be zero.
func (r *Router) Inflight() int { return len(r.routes) }
