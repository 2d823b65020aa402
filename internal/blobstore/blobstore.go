// Package blobstore is the on-disk fragment store: one append-only
// volume file per storage node, holding self-verifying archival
// fragments behind the archive.Store interface.
//
// The shape follows production blob stores (CubeFS's BlobStore keeps
// append-log volumes on disk under an access front, with a background
// scheduler doing repair and inspection): every write appends a framed
// record — magic, kind, length, CRC, payload — and an in-memory index,
// the archive.Table every fragment store keeps, maps (root, index) to
// record offsets.  Deletes append tombstones; space comes back through
// compaction, which rewrites live records to a fresh volume and
// atomically renames it into place.
//
// Crash safety is the point of the package.  Open rebuilds the index
// by scanning the log and stops at the first record that is torn
// (short) or fails its CRC, truncating the tail: a crash mid-append
// loses at most the record being written.  Durability is explicit —
// completed appends are only guaranteed to survive once Sync has
// fsynced them — and the Crashable surface lets the fault layer tear
// writes at any byte offset and drop unsynced tails, so recovery is a
// tested path, not a hope.
//
// Appends are write-behind: records are framed into a bounded
// in-memory tail that reaches the file in one pwrite at Sync, Close,
// Compact, a tear, or when it passes tailCap.  Nothing in the tail is
// promised to anyone — it sits strictly beyond the synced offset — and
// Get serves refs that still live there.
//
// A Store has no internal locking.  The rule is one goroutine per
// store at a time: the simulation's kernel thread in normal operation,
// and exactly one I/O worker while archive.Service fans a group commit
// out over the dirty volumes (the kernel thread is parked in the join
// and touches no store until every worker has returned).
package blobstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"oceanstore/internal/archive"
	"oceanstore/internal/guid"
)

// Record framing: a fixed header followed by the CRC-protected payload.
//
//	magic   u32  "OSBF"
//	kind    u8   put | drop
//	payload u32  payload byte length
//	crc     u32  CRC-32C (Castagnoli) of the payload
//	payload ...
//
// Put payloads carry a full fragment (root, index, total, proof path,
// data); drop payloads carry just (root, index).  All integers are
// big-endian.
const (
	magic      = 0x4F534246 // "OSBF"
	kindPut    = 1
	kindDrop   = 2
	headerLen  = 13
	maxPayload = 1 << 28

	// tailCap bounds the write-behind tail: an append that leaves it at
	// or past the cap flushes it.  A group-commit interval's worth of
	// fragment records is a few KiB per volume, so in practice the cap
	// only bites on bulk loads; a record larger than the cap is flushed
	// as soon as it is framed and its oversized buffer is not kept.
	tailCap = 64 << 10

	// Automatic compaction runs once dead bytes pass both the absolute
	// floor and the fraction of the volume.
	compactMinDead = 1 << 20
	compactMinFrac = 0.5
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCrashed reports an operation on a store that has crashed (a torn
// write or an injected crash) and not yet recovered.
var ErrCrashed = errors.New("blobstore: store crashed; recover before use")

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("blobstore: store closed")

// Config names one volume.
type Config struct {
	// Path is the volume file, created by the first write that reaches
	// it: a volume that holds nothing has no file.
	Path string
}

// Stats counts the volume's real I/O.  Everything here is a pure
// function of the operation sequence, so disk-backed runs stay
// byte-identical across GOMAXPROCS; wall-clock cost is the only
// nondeterminism and it lives outside the simulation.
type Stats struct {
	Puts, Gets, Drops int64
	BytesWritten      int64
	BytesRead         int64
	Syncs             int64
	// Flushes counts the pwrites that moved the write-behind tail to
	// the file; Puts+Drops over Flushes is the coalescing factor.
	Flushes     int64
	Compactions int64
	// RecoveredFrags is the live fragment count rebuilt by the last
	// open/recover scan.
	RecoveredFrags int64
	// TruncatedBytes accumulates torn or unsynced tail bytes dropped
	// across recoveries.
	TruncatedBytes int64
}

// ref locates one record in the volume.
type ref struct {
	off  int64
	size int64
}

// Store is one node's on-disk fragment store.
type Store struct {
	cfg Config
	// f is nil until something has been written: Open of a path that
	// does not exist touches nothing, and the first flush creates the
	// file.  Every byte below tailOff() is in f, so f is non-nil
	// whenever tailOff() > 0.
	f *os.File
	// newFile marks a file whose directory entry no fsync has covered
	// yet; the next Sync covers it.
	newFile bool
	size    int64 // logical end of the log (next append offset)
	synced  int64 // prefix guaranteed durable by the last fsync
	// tail holds the framed records of [size-len(tail), size): appended
	// but not yet written to the file.
	tail  []byte
	index archive.Table[ref]
	live  int64 // bytes of records the index still references
	stats Stats

	// torn >= 0 arms the failpoint: the next append writes only that
	// many bytes of its record, then the store crashes.
	torn    int
	crashed bool
	closed  bool
	ioErr   error // first write error; wedges appends and Sync until Recover
}

// Open opens a volume and rebuilds its index by scanning the log,
// truncating any torn tail — the crash-recovery path runs on every
// open, so it is exercised constantly rather than only after disasters.
// A path that does not exist yet is an empty volume and stays off the
// file system until its first flush: building a world of a thousand
// stores costs no file creation, and a crash before that flush recovers
// as the empty volume it was.
func Open(cfg Config) (*Store, error) {
	f, err := os.OpenFile(cfg.Path, os.O_RDWR, 0)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	s := &Store{cfg: cfg, f: f, torn: -1} // f stays nil when err is ErrNotExist
	if err := s.recoverScan(); err != nil {
		if f != nil {
			f.Close()
		}
		return nil, err
	}
	return s, nil
}

// writeAt writes b to the volume file at off, creating the file (and
// its directory) if this is the first write to reach it.
func (s *Store) writeAt(b []byte, off int64) error {
	if s.f == nil {
		if err := os.MkdirAll(filepath.Dir(s.cfg.Path), 0o755); err != nil {
			return err
		}
		f, err := os.OpenFile(s.cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		s.f, s.newFile = f, true
	}
	_, err := s.f.WriteAt(b, off)
	return err
}

// recoverScan rebuilds the index from the log: records are applied in
// order until the first torn or corrupt one, and the tail beyond it is
// truncated away.  Only fully-written records survive; a record whose
// CRC fails — however close to complete — is dropped with everything
// after it, so recovery can never resurrect a fragment that might be
// corrupt.
func (s *Store) recoverScan() error {
	s.index = archive.Table[ref]{}
	s.live = 0
	var end int64
	if s.f != nil {
		fi, err := s.f.Stat()
		if err != nil {
			return err
		}
		end = fi.Size()
	}
	var off int64
	hdr := make([]byte, headerLen)
	for off+headerLen <= end {
		if _, err := s.f.ReadAt(hdr, off); err != nil {
			return err
		}
		if binary.BigEndian.Uint32(hdr[0:]) != magic {
			break
		}
		kind := hdr[4]
		if kind != kindPut && kind != kindDrop {
			break
		}
		plen := int64(binary.BigEndian.Uint32(hdr[5:]))
		if plen > maxPayload || off+headerLen+plen > end {
			break
		}
		payload := make([]byte, plen)
		if _, err := s.f.ReadAt(payload, off+headerLen); err != nil {
			return err
		}
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(hdr[9:]) {
			break
		}
		r := ref{off: off, size: headerLen + plen}
		if err := s.apply(kind, payload, r); err != nil {
			break
		}
		off += r.size
	}
	if off < end {
		s.stats.TruncatedBytes += end - off
		if err := s.f.Truncate(off); err != nil {
			return err
		}
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	s.size, s.synced = off, off
	s.stats.RecoveredFrags = int64(s.index.Len())
	return nil
}

// apply replays one valid record into the index.
func (s *Store) apply(kind byte, payload []byte, r ref) error {
	switch kind {
	case kindPut:
		sf, err := decodePut(payload)
		if err != nil {
			return err
		}
		s.link(sf.Root, sf.Index, r)
	case kindDrop:
		root, idx, err := decodeDrop(payload)
		if err != nil {
			return err
		}
		old, _ := s.index.Delete(root, idx)
		s.live -= old.size
	}
	return nil
}

// beginRecord reserves a record header at the end of dst; the payload
// is appended behind it and seal backfills length and CRC.
func beginRecord(dst []byte, kind byte) []byte {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:], magic)
	hdr[4] = kind
	return append(dst, hdr[:]...)
}

// seal completes the record framed at tail[start:] — length, CRC — and
// makes it part of the log, honouring the torn-write failpoint and the
// tail cap.  On error the record is not to be indexed.
func (s *Store) seal(start int) (ref, error) {
	if s.ioErr != nil {
		s.tail = s.tail[:start]
		return ref{}, s.ioErr
	}
	rec := s.tail[start:]
	binary.BigEndian.PutUint32(rec[5:], uint32(len(rec)-headerLen))
	binary.BigEndian.PutUint32(rec[9:], crc32.Checksum(rec[headerLen:], crcTable))
	r := ref{off: s.size, size: int64(len(rec))}
	s.size += r.size
	if s.torn >= 0 {
		// The power cut lands inside this record: every append completed
		// before it goes out ahead of it in the same write.
		keep := min(s.torn, len(rec))
		s.torn = -1
		s.stats.BytesWritten += int64(keep)
		s.crashFlush(start + keep)
		return ref{}, ErrCrashed
	}
	s.stats.BytesWritten += r.size
	if len(s.tail) >= tailCap {
		if err := s.flush(); err != nil {
			return ref{}, err
		}
	}
	return r, nil
}

// tailOff is the file offset of tail[0]: the end of what has been
// handed to the file.
func (s *Store) tailOff() int64 { return s.size - int64(len(s.tail)) }

// flush moves the whole tail to the file in one pwrite.  A failed
// write keeps the tail and wedges the store (ioErr) until Recover.
func (s *Store) flush() error {
	if len(s.tail) == 0 {
		return nil
	}
	if err := s.writeAt(s.tail, s.tailOff()); err != nil {
		s.ioErr = err
		return err
	}
	s.stats.Flushes++
	if cap(s.tail) > 2*tailCap {
		s.tail = nil // one oversized record must not pin its buffer
	} else {
		s.tail = s.tail[:0]
	}
	return nil
}

// crashFlush is a flush the process does not survive: only the first n
// bytes of the tail reach the file, the rest dies with the store.
func (s *Store) crashFlush(n int) {
	off := s.tailOff()
	if n > 0 {
		if err := s.writeAt(s.tail[:n], off); err != nil {
			s.ioErr = err
		}
	}
	s.size = off + int64(n)
	s.tail = s.tail[:0]
	s.crashed = true
}

// Put stores a fragment after verifying it — a well-behaved server
// refuses garbage, on disk exactly as in memory.
func (s *Store) Put(sf archive.StoredFragment) error {
	if err := s.usable(); err != nil {
		return err
	}
	if !sf.Verify() {
		return errors.New("blobstore: fragment failed self-verification")
	}
	return s.putRecord(sf)
}

// putRecord appends a put record without verification (Tamper persists
// deliberately-rotted payloads through here).
func (s *Store) putRecord(sf archive.StoredFragment) error {
	start := len(s.tail)
	s.tail = appendPut(beginRecord(s.tail, kindPut), sf)
	r, err := s.seal(start)
	if err != nil {
		return err
	}
	s.link(sf.Root, sf.Index, r)
	s.stats.Puts++
	return nil
}

// link points the index at r for (root, index); the record it
// replaces, if any, is dead from now on.
func (s *Store) link(root guid.GUID, index int, r ref) {
	old, _ := s.index.Set(root, index, r)
	s.live += r.size - old.size
}

// Get reads a fragment back — from disk, or from the tail when its
// record has not been flushed yet.  The framing CRC is re-checked on
// every read, so media corruption of a record's header or payload
// surfaces as a missing fragment rather than garbage — silent rot
// injected *within* a valid record (Tamper) still reads back fine and
// is the Merkle layer's job to catch.
func (s *Store) Get(root guid.GUID, index int) (archive.StoredFragment, bool) {
	if s.usable() != nil {
		return archive.StoredFragment{}, false
	}
	p := s.index.Get(root, index)
	if p == nil {
		return archive.StoredFragment{}, false
	}
	r := *p
	var rec []byte
	if o := r.off - s.tailOff(); o >= 0 {
		rec = s.tail[o : o+r.size] // decodePut copies out of it
	} else {
		rec = make([]byte, r.size)
		if _, err := s.f.ReadAt(rec, r.off); err != nil {
			return archive.StoredFragment{}, false
		}
	}
	s.stats.BytesRead += r.size
	s.stats.Gets++
	if crc32.Checksum(rec[headerLen:], crcTable) != binary.BigEndian.Uint32(rec[9:]) {
		return archive.StoredFragment{}, false
	}
	sf, err := decodePut(rec[headerLen:])
	if err != nil {
		return archive.StoredFragment{}, false
	}
	return sf, true
}

// Scan enumerates held (root, index) pairs in the index's order.
func (s *Store) Scan(fn func(root guid.GUID, index int) bool) {
	s.index.Walk(func(root guid.GUID, index int, _ *ref) bool { return fn(root, index) })
}

// Drop appends a tombstone and forgets the fragment; the dead bytes
// come back at the next compaction.
func (s *Store) Drop(root guid.GUID, index int) {
	if s.usable() != nil {
		return
	}
	if s.index.Get(root, index) == nil {
		return
	}
	start := len(s.tail)
	s.tail = appendDrop(beginRecord(s.tail, kindDrop), root, index)
	if _, err := s.seal(start); err != nil {
		return // crashed mid-tombstone: the index dies with the crash
	}
	old, _ := s.index.Delete(root, index)
	s.live -= old.size
	s.stats.Drops++
	s.maybeCompact()
}

// Tamper rewrites a stored fragment's payload through the unchecked
// append path — bit rot with valid framing, invisible to everything
// below the Merkle layer.
func (s *Store) Tamper(root guid.GUID, index int, mut func(data []byte)) bool {
	if s.usable() != nil {
		return false
	}
	sf, ok := s.Get(root, index)
	if !ok {
		return false
	}
	sf.Data = append([]byte(nil), sf.Data...)
	mut(sf.Data)
	return s.putRecord(sf) == nil
}

// Sync flushes the tail and fsyncs the volume: every completed append
// before this call is durable afterwards.  No-op when nothing new was
// written.
func (s *Store) Sync() error {
	if err := s.usable(); err != nil {
		return err
	}
	if s.ioErr != nil {
		return s.ioErr
	}
	if s.synced == s.size {
		return nil
	}
	if err := s.flush(); err != nil {
		return err
	}
	// size > synced, so there are bytes below tailOff(): f exists.
	if err := s.f.Sync(); err != nil {
		return err
	}
	if s.newFile {
		syncDir(filepath.Dir(s.cfg.Path))
		s.newFile = false
	}
	s.synced = s.size
	s.stats.Syncs++
	return nil
}

// Close syncs and closes the volume.
func (s *Store) Close() error {
	if s.closed {
		return ErrClosed
	}
	var first error
	if !s.crashed {
		first = s.Sync()
	}
	if s.f != nil {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.closed = true
	return first
}

// usable gates mutating/reading operations on crash and close state.
func (s *Store) usable() error {
	if s.closed {
		return ErrClosed
	}
	if s.crashed {
		return ErrCrashed
	}
	return nil
}

// ---- Crash injection (archive.Crashable) ----

// TearNextAppend arms the torn-write failpoint: the next record append
// reaches the file only as far as its first keep bytes (behind the
// whole tail before it), then the store crashes — the moment a power
// cut lands mid-write.
func (s *Store) TearNextAppend(keep int) { s.torn = keep }

// Crash abandons the store as a dead process would: no flush, no
// close, every in-memory structure presumed lost.
func (s *Store) Crash() { s.crashed = true }

// Recover replays the volume as a fresh open.  With dropUnsynced set,
// bytes appended since the last Sync are discarded first — the crash
// happened before the fsync, so those records never reached the
// platter.  Without it every completed append counts as handed to the
// OS, so what is left of the tail (nothing, after a tear) is flushed
// before the scan.
func (s *Store) Recover(dropUnsynced bool) error {
	if s.closed {
		return ErrClosed
	}
	if !dropUnsynced {
		if err := s.flush(); err != nil {
			return err
		}
	} else if s.size > s.synced {
		s.tail = s.tail[:0]
		s.stats.TruncatedBytes += s.size - s.synced
		if s.f != nil { // else the unsynced bytes never left the tail
			if err := s.f.Truncate(s.synced); err != nil {
				return err
			}
			if err := s.f.Sync(); err != nil {
				return err
			}
		}
	}
	s.crashed = false
	s.torn = -1
	s.ioErr = nil
	return s.recoverScan()
}

// ---- Compaction ----

// maybeCompact triggers compaction once dead bytes — log bytes no
// longer referenced by the index (overwritten records, dropped records,
// tombstones) — pass both the absolute floor and the dead fraction of
// the volume.
func (s *Store) maybeCompact() {
	dead := s.size - s.live
	if dead >= compactMinDead && float64(dead) >= compactMinFrac*float64(s.size) {
		_ = s.Compact() // best effort; the old volume remains valid on failure
	}
}

// Compact rewrites live records to a fresh volume file and atomically
// renames it into place, reclaiming dead bytes.  Record order in the
// compacted volume is (root, index) order — deterministic, so two
// worlds that ran the same operation sequence hold byte-identical
// volumes.
func (s *Store) Compact() error {
	if err := s.usable(); err != nil {
		return err
	}
	if err := s.flush(); err != nil { // the rewrite reads every live record from the file
		return err
	}
	if s.f == nil {
		return nil // never written: nothing to reclaim
	}
	tmpPath := s.cfg.Path + ".compact"
	nf, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var newIndex archive.Table[ref]
	var off int64
	s.index.Walk(func(root guid.GUID, index int, r *ref) bool {
		rec := make([]byte, r.size)
		if _, err = s.f.ReadAt(rec, r.off); err != nil {
			return false
		}
		s.stats.BytesRead += r.size
		if _, err = nf.WriteAt(rec, off); err != nil {
			return false
		}
		newIndex.Set(root, index, ref{off: off, size: r.size})
		off += r.size
		return true
	})
	if err == nil {
		err = nf.Sync()
	}
	if err == nil {
		err = os.Rename(tmpPath, s.cfg.Path)
	}
	if err != nil {
		nf.Close()
		os.Remove(tmpPath)
		return err
	}
	syncDir(filepath.Dir(s.cfg.Path))
	s.f.Close()
	s.f, s.newFile = nf, false
	s.index = newIndex
	s.size, s.synced = off, off
	s.live = off
	s.stats.BytesWritten += off
	s.stats.Compactions++
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Stats returns a copy of the volume's I/O counters.
func (s *Store) Stats() Stats { return s.stats }

// ---- Payload encoding ----

// appendPut appends a fragment's payload to dst:
//
//	root [guid.Size] | u32 index | u32 total | u32 nproof |
//	proof [nproof * guid.Size] | u32 dataLen | data
func appendPut(dst []byte, sf archive.StoredFragment) []byte {
	dst = append(dst, sf.Root[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(sf.Index))
	dst = binary.BigEndian.AppendUint32(dst, uint32(sf.Total))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(sf.Proof)))
	for _, p := range sf.Proof {
		dst = append(dst, p[:]...)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(sf.Data)))
	return append(dst, sf.Data...)
}

func decodePut(payload []byte) (archive.StoredFragment, error) {
	var sf archive.StoredFragment
	if len(payload) < guid.Size+12 {
		return sf, fmt.Errorf("blobstore: put payload too short (%d bytes)", len(payload))
	}
	o := copy(sf.Root[:], payload)
	sf.Index = int(binary.BigEndian.Uint32(payload[o:]))
	o += 4
	sf.Total = int(binary.BigEndian.Uint32(payload[o:]))
	o += 4
	nproof := int(binary.BigEndian.Uint32(payload[o:]))
	o += 4
	if nproof < 0 || nproof > (len(payload)-o-4)/guid.Size {
		return sf, errors.New("blobstore: corrupt proof count")
	}
	sf.Proof = make([]guid.GUID, nproof)
	for i := range sf.Proof {
		o += copy(sf.Proof[i][:], payload[o:])
	}
	if len(payload)-o < 4 {
		return sf, errors.New("blobstore: truncated data length")
	}
	dlen := int(binary.BigEndian.Uint32(payload[o:]))
	o += 4
	if dlen != len(payload)-o {
		return sf, errors.New("blobstore: data length mismatch")
	}
	sf.Data = append([]byte(nil), payload[o:]...)
	return sf, nil
}

func appendDrop(dst []byte, root guid.GUID, index int) []byte {
	dst = append(dst, root[:]...)
	return binary.BigEndian.AppendUint32(dst, uint32(index))
}

func decodeDrop(payload []byte) (guid.GUID, int, error) {
	var root guid.GUID
	if len(payload) != guid.Size+4 {
		return root, 0, errors.New("blobstore: corrupt drop payload")
	}
	copy(root[:], payload)
	return root, int(binary.BigEndian.Uint32(payload[guid.Size:])), nil
}

// Interface conformance.
var (
	_ archive.Store      = (*Store)(nil)
	_ archive.Crashable  = (*Store)(nil)
	_ archive.Tamperable = (*Store)(nil)
)
