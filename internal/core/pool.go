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
	"oceanstore/internal/epidemic"
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
	// NoMesh skips building the Plaxton location mesh.  plaxton.New
	// fills every node's routing table by scanning every other node —
	// O(n²) table fill, the measured reason soak worlds leave it out —
	// so soak deployments, which address replicas directly, set NoMesh
	// and build in O(n).  Locate is unavailable on a meshless pool.
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
		BlockSize:      1024,
		Ring:           ring,
		Extent:         50,
		BaseLatency:    15 * time.Millisecond,
		LatencyPerUnit: time.Millisecond,
	}
}

// TierFaults is f for every object's primary tier, which has 3f+1
// members (§4.4.3).
const TierFaults = 1

// meshSalts is the location mesh's salted-root redundancy: each object
// is published toward this many independent roots.
const meshSalts = 2

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
	// order is the nodes the pool was built with, in the network's
	// locality order (simnet.LocalityOrder), a spiral out from the
	// centre of the plane: each new object's primary tier is its next
	// run of 3f+1 entries, so a tier sits in one well-connected part of
	// the network (§4.4.3), and the first objects' tiers sit nearest
	// the centre, where every client reaches them soonest.
	order []simnet.NodeID
	// nextPrimary is the position in order of the next tier's first
	// member.
	nextPrimary int
	// twoTier, when enabled, layers the probabilistic locator over the
	// global mesh (§4.3).
	twoTier *TwoTier
	// readSvc is the lazily started remote-read service (readpath.go).
	readSvc *readService

	obsReg *obs.Registry
	obsTr  *obs.Tracer
	// tally holds obsReg's epidemic counts, one slot per hosting node,
	// for every ring.
	tally *epidemic.Tally
}

// Instrument attaches an observability registry and/or tracer to the
// whole deployment: the network, the archival service, and every
// current and future object ring.  Passing nil for either disables
// that sink.  Instrumentation is counting only — it draws no
// randomness and never alters a run's trajectory.
func (p *Pool) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	p.obsReg, p.obsTr, p.tally = reg, tr, epidemic.NewTally(reg)
	p.Net.Instrument(reg, tr)
	p.Arch.Instrument(reg, tr)
	// Registry handle creation is order-insensitive and Snapshot sorts,
	// so map iteration order here cannot leak into the output.
	for _, st := range p.objects {
		st.ring.Instrument(reg, tr, p.tally)
	}
}

// NewPool builds a deployment with the given seed.
func NewPool(seed int64, cfg PoolConfig) *Pool {
	if cfg.Nodes < 3*TierFaults+1+1 {
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
		mesh.Salts = meshSalts
	}
	p := &Pool{
		K:       k,
		Net:     net,
		Mesh:    mesh,
		Arch:    archive.NewService(net, nodes),
		ACLs:    acl.NewStore(),
		cfg:     cfg,
		objects: make(map[guid.GUID]*objState),
		order:   net.LocalityOrder(),
	}
	if cfg.StoreFactory != nil {
		p.Arch.SetStoreFactory(cfg.StoreFactory)
	}
	return p
}

// pickPrimaries hands a new object the next 3f+1 nodes of the
// locality order, wrapping at its end: the first tiers are cut at the
// centre of the plane and later ones walk outward ring by ring.
func (p *Pool) pickPrimaries() []simnet.NodeID {
	n := 3*TierFaults + 1
	out := make([]simnet.NodeID, n)
	for i := range out {
		out[i] = p.order[(p.nextPrimary+i)%len(p.order)]
	}
	p.nextPrimary = (p.nextPrimary + n) % len(p.order)
	return out
}

// placed returns the node at position i of the placement order: the
// locality order of the nodes the pool was built with, then the nodes
// that joined since, in ID order.
func (p *Pool) placed(i int) simnet.NodeID {
	if i < len(p.order) {
		return p.order[i]
	}
	return simnet.NodeID(i)
}

// CreateObject provisions a new persistent object owned by owner under
// a human-readable name: a self-certifying GUID, a primary tier, an
// archived initial version, the ACL certificate cert, and a
// location-mesh publication.  The initial content is encrypted under
// key, which never leaves the client.
//
// cert is the owner's "use ACL x for this object" (§4.2), issued for
// this owner and name with the ACL's contents already registered
// (p.ACLs.AddACL); nil certifies the owner-only default.  It is
// verified in full before anything is built, so a create that fails
// on its certificate leaves no object behind and the name may be
// retried.
func (p *Pool) CreateObject(owner *crypt.Signer, name string, initial []byte, key crypt.BlockKey, cert *acl.Certificate) (guid.GUID, error) {
	obj := guid.FromOwnerAndName(owner.Public(), name)
	if _, dup := p.objects[obj]; dup {
		return guid.Zero, fmt.Errorf("core: object %q already exists", name)
	}
	if cert == nil {
		// Default writer restriction: owner only (an empty ACL; the
		// owner key is implicitly authorised).
		empty := &acl.ACL{}
		p.ACLs.AddACL(empty)
		cert = acl.Certify(owner, obj, empty, 1)
	}
	if cert.Object != obj {
		return guid.Zero, fmt.Errorf("core: certificate for object %q names another object", name)
	}
	if err := p.ACLs.AddCert(cert, name); err != nil {
		return guid.Zero, err
	}
	v0 := object.NewObject(initial, p.cfg.BlockSize, key)
	primaries := p.pickPrimaries()
	ring, err := replica.NewRing(p.Net, primaries, v0, obj, p.Arch, p.cfg.Ring)
	if err != nil {
		return guid.Zero, err
	}
	ring.CheckWrite = p.ACLs.CheckWrite
	if p.obsReg != nil || p.obsTr != nil {
		ring.Instrument(p.obsReg, p.obsTr, p.tally)
	}
	st := &objState{ring: ring, name: name}
	p.objects[obj] = st
	// Archive the initial version immediately (§4.5: archival copies of
	// idle objects) so even never-updated objects are deeply durable.
	if _, err := ring.ArchiveNow(); err != nil {
		return guid.Zero, err
	}

	// Publish the object's location (its primary-tier members hold it).
	for _, nid := range primaries {
		if p.Mesh != nil {
			if _, err := p.Mesh.Publish(int(nid), obj); err != nil {
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
	_, err := p.Mesh.Publish(int(node), obj)
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
		p.Mesh.Unpublish(int(node), obj)
	}
	return nil
}

// Locate finds the closest replica of obj from a node, via the global
// location mesh (§4.3.3).
func (p *Pool) Locate(from simnet.NodeID, obj guid.GUID) (simnet.NodeID, error) {
	if p.Mesh == nil {
		return simnet.None, errors.New("core: pool built with NoMesh cannot locate")
	}
	res, err := p.Mesh.Locate(int(from), obj)
	if err != nil {
		return simnet.None, err
	}
	return simnet.NodeID(res.Holder), nil
}

// Run advances the simulated world.
func (p *Pool) Run(d time.Duration) { p.K.RunFor(d) }
