// Package oceanstore is a from-scratch Go implementation of
// OceanStore, the global-scale persistent storage architecture of
// Kubiatowicz et al. (ASPLOS 2000), running over a deterministic
// discrete-event network simulation.
//
// OceanStore stores persistent objects named by self-certifying GUIDs
// on an infrastructure of untrusted servers.  Only clients hold keys:
// all data in the infrastructure is ciphertext, yet servers still
// evaluate update predicates (compare-version/size/block, encrypted
// search) and apply block-level actions.  Every object has a small
// primary tier of replicas that serialises updates with Byzantine
// agreement and a larger set of secondary replicas kept fresh through
// dissemination trees and epidemic anti-entropy.  Committed versions
// are erasure-coded into self-verifying fragments and dispersed across
// administrative domains (deep archival storage).  Replica location
// uses attenuated Bloom filters nearby and a Plaxton-style mesh
// globally, and introspective modules observe usage to drive
// clustering, prefetching and replica management.
//
// # Quick start
//
//	world := oceanstore.NewWorld(42, oceanstore.DefaultConfig())
//	alice := world.NewClient("alice")
//	doc, _ := alice.Create("notes", []byte("hello"))
//	sess := alice.NewSession(oceanstore.ACID)
//	sess.Append(doc, []byte(" world"))
//	world.Run(30 * time.Second) // advance simulated time
//	data, _ := sess.Read(doc)   // "hello world"
//
// The package re-exports the client surface of internal/core; the
// substrate packages (internal/plaxton, internal/erasure, ...) carry
// the individual mechanisms and their experiments.
package oceanstore

import (
	"time"

	"oceanstore/internal/acl"
	"oceanstore/internal/core"
	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

// GUID names every entity in the system (paper §4.1).
type GUID = guid.GUID

// UpdateID identifies one submitted update, as seen by session commit
// and abort callbacks.
type UpdateID = update.UpdateID

// Config sizes a simulated deployment; see core.PoolConfig.
type Config = core.PoolConfig

// DefaultConfig is a 64-node, 4-domain pool with WAN-like latencies.
func DefaultConfig() Config { return core.DefaultPoolConfig() }

// TierFaults is f for every object's primary tier (3f+1 members).
const TierFaults = core.TierFaults

// Session guarantees (Bayou-style, §2) and the strong-session preset.
const (
	ReadYourWrites    = core.ReadYourWrites
	MonotonicReads    = core.MonotonicReads
	WritesFollowReads = core.WritesFollowReads
	MonotonicWrites   = core.MonotonicWrites
	ReadCommitted     = core.ReadCommitted
	ACID              = core.ACID
)

// Guarantees selects a session's consistency level.
type Guarantees = core.Guarantees

// Session is a sequence of guaranteed reads and writes (§4.6).
type Session = core.Session

// Client is a trusted endpoint holding keys and signing updates.
type Client = core.Client

// FS is the Unix-like file-system facade.
type FS = core.FS

// Tx is the transactional facade.
type Tx = core.Tx

// Transaction states.
const (
	TxPending   = core.TxPending
	TxSubmitted = core.TxSubmitted
	TxCommitted = core.TxCommitted
	TxAborted   = core.TxAborted
)

// World is a simulated OceanStore deployment plus its virtual clock.
type World struct {
	// Pool exposes the underlying deployment for advanced use
	// (replica management, the location mesh, the archival service).
	Pool *core.Pool
	next simnet.NodeID
}

// NewWorld creates a deployment.  The seed fixes all randomness: the
// same seed reproduces the same run exactly.
func NewWorld(seed int64, cfg Config) *World {
	p := core.NewPool(seed, cfg)
	return &World{Pool: p, next: simnet.NodeID(cfg.Nodes - 1)}
}

// NewClient attaches a named client to the pool at a distinct node
// (clients occupy nodes from the top of the range downwards).
func (w *World) NewClient(name string) *Client {
	_ = name // names are a convenience; identity is the key pair
	c := w.Pool.NewClient(w.next, crypt.NewSigner(w.Pool.K.Rand()))
	w.next--
	return c
}

// Run advances simulated time, letting updates commit, trees push,
// gossip spread, and repairs run.
func (w *World) Run(d time.Duration) { w.Pool.Run(d) }

// Now returns the current virtual time.
func (w *World) Now() time.Duration { return w.Pool.K.Now() }

// AddReplica creates a floating secondary replica of obj on a pool
// node — promiscuous caching under explicit control.
func (w *World) AddReplica(obj GUID, node int) error {
	return w.Pool.AddReplica(obj, simnet.NodeID(node))
}

// Locate finds the closest replica of obj from a node via the global
// location mesh.
func (w *World) Locate(from int, obj GUID) (int, error) {
	n, err := w.Pool.Locate(simnet.NodeID(from), obj)
	return int(n), err
}

// ACL types for writer restriction (§4.2).
type (
	// ACL lists signing keys granted privileges on an object.
	ACL = acl.ACL
	// ACLEntry grants one privilege to one key.
	ACLEntry = acl.Entry
)

// Privileges.
const (
	PrivWrite = acl.PrivWrite
	PrivAdmin = acl.PrivAdmin
)

// SetACL re-certifies an object's ACL (the owner revokes or grants
// writers by issuing a higher-serial certificate).
func (w *World) SetACL(owner *Client, obj GUID, a *ACL, serial uint64) error {
	return w.Pool.SetACL(owner.Signer, obj, a, serial)
}
