package archive

import (
	"errors"

	"oceanstore/internal/guid"
)

// Store is the per-server fragment store surface.  The archival
// service talks to its stores only through this interface, so a
// deployment can swap the in-memory NodeStore for a real-I/O backend
// (internal/blobstore) without the service — or anything above it —
// noticing.  Implementations need no internal locking: a store is only
// ever used by one goroutine at a time — the simulator thread, or, while
// that thread is parked in a group commit (Service.SyncDirty,
// CloseStores), the single I/O worker that owns the store for the join.
//
// Behavioural contract (shared by every backend, pinned by
// archive tests so the memory/disk ablation is apples-to-apples):
//
//   - Put verifies the fragment and refuses garbage; storing the same
//     (root, index) twice replaces the earlier copy.
//   - Scan walks in (root GUID, index) order, so every caller that
//     feeds what it lists into dispersal, scrub or repair decisions
//     behaves identically across runs and backends.
type Store interface {
	// Put stores a fragment after verifying it — a well-behaved server
	// refuses garbage.
	Put(sf StoredFragment) error
	// Get fetches a fragment by archive root and index.
	Get(root guid.GUID, index int) (StoredFragment, bool)
	// Drop removes a fragment (disk loss, or the audit/scrub layers
	// discarding a copy they have proven rotten).
	Drop(root guid.GUID, index int)
	// Scan enumerates every held (root, index) pair in (root GUID,
	// index) order until fn returns false — the scrub scheduler's
	// enumeration hook.  Scan reports references only; readers re-read
	// payloads through Get so a disk backend pays real read I/O for
	// every verification.  fn may Get but must not Put or Drop.
	Scan(fn func(root guid.GUID, index int) bool)
}

// Durable is the optional surface of stores with something to flush:
// Sync makes every completed Put/Drop durable (fsync on disk) and Close
// releases the store, which is unusable afterwards.  Group commits and
// shutdown join only the stores that implement it; a memory store has
// nothing to make durable and does not.
type Durable interface {
	Sync() error
	Close() error
}

// Crashable is the optional surface of stores with a real durability
// boundary (internal/blobstore).  The fault layer uses it to attack
// recovery: TearNextAppend arms a torn write — the next fragment
// append stops after keep bytes of the on-media record, as if the
// process died mid-write — and Crash abandons the store the way a dead
// process would.  Recover replays the volume like a fresh open,
// dropping any torn tail; with dropUnsynced set it also discards every
// record written since the last Sync (a crash before the fsync made
// them durable).  Memory stores implement none of this: a slice insert
// has no moment mid-write for a crash to land in.
type Crashable interface {
	TearNextAppend(keep int)
	Crash()
	Recover(dropUnsynced bool) error
}

// Tamperable is the optional bit-rot injection surface, asserted by
// CorruptFragment the way crash.go asserts Crashable: Tamper mutates a
// stored fragment's payload in place without tripping Put's
// verification and returns false when the fragment is not held.  The
// rotted copy must persist across Sync/reopen exactly like a good one.
type Tamperable interface {
	Tamper(root guid.GUID, index int, mut func(data []byte)) bool
}

// HeldRoots lists the archive roots st holds fragments of, in GUID
// order.
func HeldRoots(st Store) []guid.GUID {
	var out []guid.GUID
	st.Scan(func(root guid.GUID, _ int) bool {
		if n := len(out); n == 0 || out[n-1] != root {
			out = append(out, root)
		}
		return true
	})
	return out
}

// HeldIndexes lists the fragment indexes st holds of root, ascending.
// Scan's order puts them in one run, so the walk stops past it.
func HeldIndexes(st Store, root guid.GUID) []int {
	var out []int
	st.Scan(func(r guid.GUID, index int) bool {
		c := r.Compare(root)
		if c == 0 {
			out = append(out, index)
		}
		return c <= 0
	})
	return out
}

// NodeStore is the in-memory fragment store: the fragment table with
// each fragment's body as the value.
type NodeStore struct {
	frags Table[fragBody]
}

// fragBody is a stored fragment less the (root, index) key its table
// row already carries.
type fragBody struct {
	total int
	data  []byte
	proof []guid.GUID
}

// NewNodeStore creates an empty store.
func NewNodeStore() *NodeStore { return &NodeStore{} }

// Put stores a fragment after verifying it — a well-behaved server
// refuses garbage.
func (ns *NodeStore) Put(sf StoredFragment) error {
	if !sf.Verify() {
		return errors.New("archive: fragment failed self-verification")
	}
	ns.frags.Set(sf.Root, sf.Index, fragBody{sf.Total, sf.Data, sf.Proof})
	return nil
}

// Get fetches a fragment by archive root and index.
func (ns *NodeStore) Get(root guid.GUID, index int) (StoredFragment, bool) {
	b := ns.frags.Get(root, index)
	if b == nil {
		return StoredFragment{}, false
	}
	return StoredFragment{Root: root, Index: index, Total: b.total, Data: b.data, Proof: b.proof}, true
}

// Drop removes a fragment (disk loss injection for tests).
func (ns *NodeStore) Drop(root guid.GUID, index int) { ns.frags.Delete(root, index) }

// Scan enumerates the store's fragments in the order they are held.
func (ns *NodeStore) Scan(fn func(root guid.GUID, index int) bool) {
	ns.frags.Walk(func(root guid.GUID, index int, _ *fragBody) bool { return fn(root, index) })
}

// Tamper mutates a stored fragment's payload in place — the bit-rot
// injection point.  The payload is cloned first: fragment Data slices
// are shared with in-flight copies and the original encode output, and
// rot on one disk must not teleport into another node's copy.  Unlike
// Put, the result deliberately no longer verifies.
func (ns *NodeStore) Tamper(root guid.GUID, index int, mut func(data []byte)) bool {
	b := ns.frags.Get(root, index)
	if b == nil {
		return false
	}
	b.data = append([]byte(nil), b.data...)
	mut(b.data)
	return true
}

// NodeStore must satisfy the Store interface and take injected rot.
var (
	_ Store      = (*NodeStore)(nil)
	_ Tamperable = (*NodeStore)(nil)
)
