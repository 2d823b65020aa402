package archive

import "oceanstore/internal/guid"

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
//   - Indexes and Roots return sorted results, so every caller that
//     feeds them into dispersal or repair decisions behaves identically
//     across runs and backends.
//   - Sync makes every completed Put/Drop durable; what durability
//     means is the backend's business (a no-op in memory, fsync on
//     disk).
type Store interface {
	// Put stores a fragment after verifying it — a well-behaved server
	// refuses garbage.
	Put(sf StoredFragment) error
	// Get fetches a fragment by archive root and index.
	Get(root guid.GUID, index int) (StoredFragment, bool)
	// Indexes lists the fragment indexes held for an archive, sorted
	// ascending.
	Indexes(root guid.GUID) []int
	// Roots lists the archive roots this store holds fragments of, in
	// GUID order.
	Roots() []guid.GUID
	// Drop removes a fragment (disk loss, or the audit/scrub layers
	// discarding a copy they have proven rotten).
	Drop(root guid.GUID, index int)
	// Scan enumerates every held (root, index) pair in (root GUID,
	// index) order until fn returns false — the scrub scheduler's
	// enumeration hook.  Scan reports references only; the scrubber
	// re-reads payloads through Get so a disk backend pays real read
	// I/O for every verification.  fn must not modify the store.
	Scan(fn func(root guid.GUID, index int) bool)
	// Sync makes completed writes durable (fsync on a disk backend).
	Sync() error
	// Close releases the store's resources; the store is unusable
	// afterwards.
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

// Scan enumerates the in-memory store's fragments in sorted order —
// the order they are held in.
func (ns *NodeStore) Scan(fn func(root guid.GUID, index int) bool) {
	for i := range ns.frags {
		if !fn(ns.frags[i].Root, ns.frags[i].Index) {
			return
		}
	}
}

// Sync is a no-op: memory writes are "durable" the moment they happen.
func (ns *NodeStore) Sync() error { return nil }

// Close is a no-op for the in-memory store.
func (ns *NodeStore) Close() error { return nil }

// NodeStore must satisfy the Store interface and take injected rot.
var (
	_ Store      = (*NodeStore)(nil)
	_ Tamperable = (*NodeStore)(nil)
)
