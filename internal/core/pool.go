// Package core assembles the OceanStore system (paper §2): a simulated
// pool of untrusted servers running the location mesh, the archival
// service, and per-object replica rings; plus the client API of §4.6 —
// sessions with Bayou-style guarantees, updates, callbacks — and the
// legacy facades (a Unix-like file system and a transactional
// interface).
package core

import (
	"errors"
	"fmt"
	"time"

	"oceanstore/internal/acl"
	"oceanstore/internal/archive"
	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/obs"
	"oceanstore/internal/plaxton"
	"oceanstore/internal/replica"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// PoolConfig sizes a simulated deployment.
type PoolConfig struct {
	// Nodes is the total server count.
	Nodes int
	// Domains is the number of administrative domains.
	Domains int
	// Faults is f for every object's primary tier (3f+1 members).
	Faults int
	// BlockSize is the object block granularity.
	BlockSize int
	// Ring tunes per-object replication; zero-valued fields default.
	Ring replica.Config
	// Extent scales the latency plane; BaseLatency/LatencyPerUnit set
	// the link model.
	Extent         float64
	BaseLatency    time.Duration
	LatencyPerUnit time.Duration
	DropProb       float64
	// Salts sets the location mesh's salted-root redundancy.
	Salts uint32
	// NoMesh skips building the Plaxton location mesh.  plaxton.New
	// fills every node's routing table by scanning every other node —
	// O(n²) table fill, the measured reason soak worlds leave it out —
	// so soak deployments, which address replicas directly, set NoMesh
	// and build in O(n); a near-linear builder is ROADMAP item 3.
	// Locate and Router are unavailable on a meshless pool.
	NoMesh bool
	// StoreFactory, when set, selects the fragment-store backend each
	// storage node gets on first use (e.g. a blobstore volume per
	// node); nil keeps the in-memory NodeStore.
	StoreFactory func(simnet.NodeID) archive.Store
}

// DefaultPoolConfig is a 64-node, 4-domain pool with WAN-ish latency.
func DefaultPoolConfig() PoolConfig {
	ring := replica.DefaultConfig()
	ring.Archive = archive.Config{DataShards: 8, TotalFragments: 16}
	return PoolConfig{
		Nodes:          64,
		Domains:        4,
		Faults:         1,
		BlockSize:      1024,
		Ring:           ring,
		Extent:         50,
		BaseLatency:    15 * time.Millisecond,
		LatencyPerUnit: time.Millisecond,
		Salts:          2,
	}
}

// objState is the server-side state for one object.
type objState struct {
	ring *replica.Ring
	name string
}

// Pool is a simulated OceanStore deployment.
type Pool struct {
	K    *sim.Kernel
	Net  *simnet.Network
	Mesh *plaxton.Mesh
	Arch *archive.Service
	ACLs *acl.Store
	cfg  PoolConfig

	objects map[guid.GUID]*objState
	// nextPrimary rotates which servers host new objects' primary tiers.
	nextPrimary int
	// twoTier, when enabled, layers the probabilistic locator over the
	// global mesh (§4.3).
	twoTier *TwoTier
	// readSvc is the lazily started remote-read service (readpath.go).
	readSvc *readService
	// router is the lazily started asynchronous mesh router.
	router *plaxton.Router

	obsReg *obs.Registry
	obsTr  *obs.Tracer
}

// Instrument attaches an observability registry and/or tracer to the
// whole deployment: the network, the archival service, the mesh router
// (if started), and every current and future object ring.  Passing nil
// for either disables that sink.  Instrumentation is counting only —
// it draws no randomness and never alters a run's trajectory.
func (p *Pool) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	p.obsReg, p.obsTr = reg, tr
	p.Net.Instrument(reg, tr)
	p.Arch.Instrument(reg, tr)
	if p.router != nil {
		p.router.Instrument(reg, tr)
	}
	// Registry handle creation is order-insensitive and Snapshot sorts,
	// so map iteration order here cannot leak into the output.
	for _, st := range p.objects {
		st.ring.Instrument(reg, tr)
	}
}

// NewPool builds a deployment with the given seed.
func NewPool(seed int64, cfg PoolConfig) *Pool {
	if cfg.Nodes < 3*cfg.Faults+1+1 {
		panic("core: pool too small for the primary tier plus a client")
	}
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{
		BaseLatency:    cfg.BaseLatency,
		LatencyPerUnit: cfg.LatencyPerUnit,
		DropProb:       cfg.DropProb,
	})
	nodes := net.AddRandomNodes(cfg.Nodes, cfg.Extent, cfg.Domains)
	var mesh *plaxton.Mesh
	if !cfg.NoMesh {
		ids := make([]guid.GUID, len(nodes))
		for i, n := range nodes {
			ids[i] = n.Addr()
		}
		mesh = plaxton.New(ids, func(a, b int) float64 {
			return net.Distance(simnet.NodeID(a), simnet.NodeID(b))
		})
		if cfg.Salts > 0 {
			mesh.Salts = cfg.Salts
		}
	}
	p := &Pool{
		K:       k,
		Net:     net,
		Mesh:    mesh,
		Arch:    archive.NewService(net, nodes),
		ACLs:    acl.NewStore(),
		cfg:     cfg,
		objects: make(map[guid.GUID]*objState),
	}
	if cfg.StoreFactory != nil {
		p.Arch.SetStoreFactory(cfg.StoreFactory)
	}
	return p
}

// Router returns the asynchronous mesh router: routes, publishes and
// locates ride the simulated network with per-hop timeouts, backup-link
// failover and capped exponential backoff, instead of the synchronous
// table walk Mesh performs.
func (p *Pool) Router() *plaxton.Router {
	if p.Mesh == nil {
		panic("core: pool built with NoMesh has no location mesh to route over")
	}
	if p.router == nil {
		p.router = plaxton.NewRouter(p.Mesh, p.Net, plaxton.DefaultRouterConfig())
		if p.obsReg != nil || p.obsTr != nil {
			p.router.Instrument(p.obsReg, p.obsTr)
		}
	}
	return p.router
}

// pickPrimaries rotates 3f+1 primary-tier nodes for a new object.
func (p *Pool) pickPrimaries() []simnet.NodeID {
	n := 3*p.cfg.Faults + 1
	out := make([]simnet.NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = simnet.NodeID((p.nextPrimary + i) % p.cfg.Nodes)
	}
	p.nextPrimary = (p.nextPrimary + n) % p.cfg.Nodes
	return out
}

// CreateObject provisions a new persistent object owned by owner under
// a human-readable name: a self-certifying GUID, a primary tier, an
// owner-only ACL certificate, and a location-mesh publication.  The
// initial content is encrypted under key, which never leaves the
// client.
func (p *Pool) CreateObject(owner *crypt.Signer, name string, initial []byte, key crypt.BlockKey) (guid.GUID, error) {
	obj := guid.FromOwnerAndName(owner.Public(), name)
	if _, dup := p.objects[obj]; dup {
		return guid.Zero, fmt.Errorf("core: object %q already exists", name)
	}
	v0 := object.NewObject(initial, p.cfg.BlockSize, key)
	cfg := p.cfg.Ring
	cfg.Faults = p.cfg.Faults
	primaries := p.pickPrimaries()
	ring, err := replica.NewRing(p.Net, primaries, v0, obj, p.Arch, cfg)
	if err != nil {
		return guid.Zero, err
	}
	ring.CheckWrite = p.ACLs.CheckWrite
	if p.obsReg != nil || p.obsTr != nil {
		ring.Instrument(p.obsReg, p.obsTr)
	}
	st := &objState{ring: ring, name: name}
	p.objects[obj] = st
	// Archive the initial version immediately (§4.5: archival copies of
	// idle objects) so even never-updated objects are deeply durable.
	if _, err := ring.ArchiveNow(); err != nil {
		return guid.Zero, err
	}

	// Default writer restriction: owner only (an empty ACL; the owner
	// key is implicitly authorised).
	empty := &acl.ACL{}
	p.ACLs.AddACL(empty)
	if err := p.ACLs.AddCert(acl.Certify(owner, obj, empty, 1), name); err != nil {
		return guid.Zero, err
	}
	// Publish the object's location (its primary-tier members hold it).
	for _, nid := range primaries {
		if p.Mesh != nil {
			if _, err := p.Mesh.Publish(int(nid), obj, p.K.Now()); err != nil {
				return guid.Zero, err
			}
		}
		if p.twoTier != nil {
			p.twoTier.notePlacement(nid, obj)
		}
	}
	return obj, nil
}

// SetACL lets the owner bind a new ACL to an object (re-certification;
// higher serial revokes earlier grants).
func (p *Pool) SetACL(owner *crypt.Signer, obj guid.GUID, a *acl.ACL, serial uint64) error {
	st, ok := p.objects[obj]
	if !ok {
		return errors.New("core: no such object")
	}
	p.ACLs.AddACL(a)
	return p.ACLs.AddCert(acl.Certify(owner, obj, a, serial), st.name)
}

// Ring exposes an object's replica ring.
func (p *Pool) Ring(obj guid.GUID) (*replica.Ring, bool) {
	st, ok := p.objects[obj]
	if !ok {
		return nil, false
	}
	return st.ring, true
}

// AddReplica creates a floating secondary replica of obj on node and
// publishes the new location in the mesh — the mechanics behind both
// promiscuous caching and introspective replica management (§4.7.2).
func (p *Pool) AddReplica(obj guid.GUID, node simnet.NodeID) error {
	st, ok := p.objects[obj]
	if !ok {
		return errors.New("core: no such object")
	}
	if _, err := st.ring.AddSecondary(node); err != nil {
		return err
	}
	if p.twoTier != nil {
		p.twoTier.notePlacement(node, obj)
	}
	if p.Mesh == nil {
		return nil
	}
	_, err := p.Mesh.Publish(int(node), obj, p.K.Now())
	return err
}

// RemoveReplica retires a floating replica and unpublishes it.
func (p *Pool) RemoveReplica(obj guid.GUID, node simnet.NodeID) error {
	st, ok := p.objects[obj]
	if !ok {
		return errors.New("core: no such object")
	}
	if err := st.ring.RemoveSecondary(node); err != nil {
		return err
	}
	if p.twoTier != nil {
		p.twoTier.noteRemoval(node, obj)
	}
	if p.Mesh != nil {
		p.Mesh.Unpublish(int(node), obj, p.K.Now())
	}
	return nil
}

// Locate finds the closest replica of obj from a node, via the global
// location mesh (§4.3.3).
func (p *Pool) Locate(from simnet.NodeID, obj guid.GUID) (simnet.NodeID, error) {
	if p.Mesh == nil {
		return simnet.None, errors.New("core: pool built with NoMesh cannot locate")
	}
	res, err := p.Mesh.Locate(int(from), obj, p.K.Now())
	if err != nil {
		return simnet.None, err
	}
	return simnet.NodeID(res.Holder), nil
}

// Run advances the simulated world.
func (p *Pool) Run(d time.Duration) { p.K.RunFor(d) }
