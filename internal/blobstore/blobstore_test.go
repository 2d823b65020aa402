package blobstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"oceanstore/internal/archive"
	"oceanstore/internal/guid"
)

// mkFrags encodes n bytes of random data into verified fragments.
func mkFrags(t *testing.T, seed int64, size int) (guid.GUID, []archive.StoredFragment) {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	root, frags, err := archive.Encode(data, archive.Config{DataShards: 4, TotalFragments: 8})
	if err != nil {
		t.Fatal(err)
	}
	return root, frags
}

func openStore(t *testing.T, path string, cfg Config) *Store {
	t.Helper()
	cfg.Path = path
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTripAndReopen: fragments put and synced survive a close and
// reopen byte-for-byte, and the store contract (sorted Indexes/Roots,
// Put-verifies, Get-returns-equal) matches the in-memory NodeStore.
func TestRoundTripAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 1, 3000)
	s := openStore(t, path, Config{})

	// Store in scrambled order; Indexes must come back sorted (the
	// same determinism contract NodeStore pins).
	for _, i := range rand.New(rand.NewSource(2)).Perm(len(frags)) {
		if err := s.Put(frags[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Indexes(root); !sort.IntsAreSorted(got) || len(got) != len(frags) {
		t.Fatalf("Indexes wrong: %v", got)
	}
	// Garbage is refused at the door.
	bad := frags[0]
	bad.Data = append([]byte(nil), bad.Data...)
	bad.Data[0] ^= 0xFF
	if err := s.Put(bad); err == nil {
		t.Fatal("store accepted a non-verifying fragment")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, path, Config{})
	defer s2.Close()
	if got := s2.Stats().RecoveredFrags; got != int64(len(frags)) {
		t.Fatalf("recovered %d fragments, want %d", got, len(frags))
	}
	for _, f := range frags {
		g, ok := s2.Get(root, f.Index)
		if !ok {
			t.Fatalf("fragment %d lost across reopen", f.Index)
		}
		if !reflect.DeepEqual(g, f) {
			t.Fatalf("fragment %d mutated across reopen", f.Index)
		}
		if !g.Verify() {
			t.Fatalf("fragment %d fails verification after reopen", f.Index)
		}
	}
	if s2.Stats().BytesRead == 0 {
		t.Fatal("reads did not count disk bytes")
	}
}

// TestDropTombstonesSurviveReopen: a dropped fragment stays dropped
// after recovery — the tombstone replays over the put record.
func TestDropTombstonesSurviveReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 3, 2000)
	s := openStore(t, path, Config{DisableAutoCompact: true})
	for _, f := range frags {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	s.Drop(root, frags[2].Index)
	s.Drop(root, frags[5].Index)
	if s.DeadBytes() == 0 {
		t.Fatal("drops left no dead bytes")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, path, Config{DisableAutoCompact: true})
	defer s2.Close()
	want := []int{0, 1, 3, 4, 6, 7}
	if got := s2.Indexes(root); !reflect.DeepEqual(got, want) {
		t.Fatalf("indexes after reopen = %v, want %v", got, want)
	}
}

// TestCompactReclaimsDeadBytes: compaction drops tombstoned records,
// keeps every live fragment readable, and the compacted volume
// recovers identically.
func TestCompactReclaimsDeadBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 7, 4000)
	s := openStore(t, path, Config{DisableAutoCompact: true})
	for _, f := range frags {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		s.Drop(root, frags[i].Index)
	}
	before := s.Size()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Size() >= before {
		t.Fatalf("compaction did not shrink the volume: %d -> %d", before, s.Size())
	}
	if s.DeadBytes() != 0 {
		t.Fatalf("dead bytes after compaction: %d", s.DeadBytes())
	}
	for _, f := range frags[4:] {
		g, ok := s.Get(root, f.Index)
		if !ok || !g.Verify() {
			t.Fatalf("live fragment %d lost or corrupt after compaction", f.Index)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, path, Config{})
	defer s2.Close()
	if got := len(s2.Indexes(root)); got != 4 {
		t.Fatalf("compacted volume recovered %d fragments, want 4", got)
	}
}

// TestAutoCompactTriggers: enough dropped weight trips the automatic
// threshold without an explicit Compact call.
func TestAutoCompactTriggers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 9, 8000)
	s := openStore(t, path, Config{CompactMinDead: 1024, CompactMinFrac: 0.4})
	defer s.Close()
	for _, f := range frags {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		s.Drop(root, frags[i].Index)
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("auto-compaction never triggered")
	}
	for _, f := range frags[6:] {
		if g, ok := s.Get(root, f.Index); !ok || !g.Verify() {
			t.Fatalf("fragment %d lost by auto-compaction", f.Index)
		}
	}
}

// TestTamperPersistsRot: Tamper's garbled payload survives reopen with
// valid framing — silent rot that only the Merkle layer can see, on
// disk exactly as in memory.
func TestTamperPersistsRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 11, 1500)
	s := openStore(t, path, Config{})
	for _, f := range frags {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Tamper(root, frags[3].Index, func(d []byte) { d[len(d)/2] ^= 1 }) {
		t.Fatal("tamper failed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, path, Config{})
	defer s2.Close()
	g, ok := s2.Get(root, frags[3].Index)
	if !ok {
		t.Fatal("rotted fragment vanished — rot must persist, not disappear")
	}
	if g.Verify() {
		t.Fatal("rot healed itself across reopen")
	}
	// Every other fragment is untouched.
	for _, f := range frags {
		if f.Index == frags[3].Index {
			continue
		}
		if g, ok := s2.Get(root, f.Index); !ok || !g.Verify() {
			t.Fatalf("rot leaked onto fragment %d", f.Index)
		}
	}
}

// TestPartialFsyncRecovery separates the two durability boundaries:
// records appended but not fsynced survive a plain recovery (they hit
// the file) but are erased by a drop-unsynced recovery (the crash beat
// the fsync).
func TestPartialFsyncRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 13, 2500)
	s := openStore(t, path, Config{})
	defer s.Close()
	for _, f := range frags[:4] {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, f := range frags[4:] {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	if s.Unsynced() == 0 {
		t.Fatal("no unsynced window to attack")
	}

	s.Crash()
	if err := s.Put(frags[0]); err != ErrCrashed {
		t.Fatalf("crashed store accepted a put: %v", err)
	}
	if err := s.Recover(true); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	var got []int
	for _, f := range frags {
		if _, ok := s.Get(root, f.Index); ok {
			got = append(got, f.Index)
		}
	}
	sort.Ints(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drop-unsynced recovery kept %v, want exactly the synced prefix %v", got, want)
	}

	// The same unsynced tail would have survived a recovery that does
	// not drop it (the writes reached the file, just not the platter).
	for _, f := range frags[4:] {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()
	if err := s.Recover(false); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Indexes(root)); got != len(frags) {
		t.Fatalf("plain recovery kept %d fragments, want %d", got, len(frags))
	}
}

// TestRecoveryIgnoresGarbageTail: arbitrary garbage appended to the
// volume (a torn write that scribbled junk) is truncated at open.
func TestRecoveryIgnoresGarbageTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 17, 1000)
	s := openStore(t, path, Config{})
	for _, f := range frags {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 137)
	rand.New(rand.NewSource(18)).Read(junk)
	f.Write(junk)
	f.Close()

	s2 := openStore(t, path, Config{})
	defer s2.Close()
	if got := len(s2.Indexes(root)); got != len(frags) {
		t.Fatalf("garbage tail cost fragments: %d of %d", got, len(frags))
	}
	if s2.Stats().TruncatedBytes != int64(len(junk)) {
		t.Fatalf("truncated %d bytes, want %d", s2.Stats().TruncatedBytes, len(junk))
	}
}

// TestReadYourUnsyncedWrites: refs whose records are still in the
// write-behind tail behave exactly like flushed ones — Get returns
// them, Tamper rewrites them, Drop forgets them, Compact carries them —
// and one Sync puts the lot on disk with a single pwrite.
func TestReadYourUnsyncedWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 61, 1200)
	s := openStore(t, path, Config{DisableAutoCompact: true})
	for _, f := range frags {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range frags {
		g, ok := s.Get(root, f.Index)
		if !ok || !reflect.DeepEqual(g, f) {
			t.Fatalf("unsynced fragment %d unreadable or mangled", f.Index)
		}
	}
	if !s.Tamper(root, 1, func(d []byte) { d[0] ^= 0xff }) {
		t.Fatal("tamper missed a tail-resident fragment")
	}
	if g, ok := s.Get(root, 1); !ok || g.Verify() {
		t.Fatal("tail-resident rot did not read back rotted")
	}
	s.Drop(root, 2)
	if _, ok := s.Get(root, 2); ok {
		t.Fatal("dropped tail-resident fragment still readable")
	}
	if st := s.Stats(); st.Flushes != 0 || st.Syncs != 0 {
		t.Fatalf("nothing asked for a flush yet: %+v", st)
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.DeadBytes() != 0 {
		t.Fatalf("compaction left %d dead bytes", s.DeadBytes())
	}
	want := []int{0, 1, 3, 4, 5, 6, 7}
	if got := s.Indexes(root); !reflect.DeepEqual(got, want) {
		t.Fatalf("after compacting a tail-resident log: %v, want %v", got, want)
	}
	if err := s.Put(frags[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// One flush for Compact, one for Sync — ten appends, two pwrites.
	if st := s.Stats(); st.Flushes != 2 || st.Syncs != 1 {
		t.Fatalf("flushes %d syncs %d, want 2 and 1", st.Flushes, st.Syncs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, path, Config{})
	defer s2.Close()
	for _, f := range frags {
		g, ok := s2.Get(root, f.Index)
		if !ok {
			t.Fatalf("fragment %d lost across reopen", f.Index)
		}
		if rotted := f.Index == 1; g.Verify() == rotted {
			t.Fatalf("fragment %d: verify=%v after reopen", f.Index, g.Verify())
		}
	}
}

// TestTailIsBounded: the tail flushes itself once it passes tailCap, a
// read spanning flushed and unflushed records sees both, and a single
// record far larger than the cap does not leave its buffer pinned.
func TestTailIsBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	s := openStore(t, path, Config{DisableAutoCompact: true})
	defer s.Close()
	var roots []guid.GUID
	var all [][]archive.StoredFragment
	for i := 0; s.Stats().Flushes == 0; i++ {
		if i > 1000 {
			t.Fatal("tail never flushed itself")
		}
		root, frags := mkFrags(t, int64(100+i), 4000)
		roots, all = append(roots, root), append(all, frags)
		for _, f := range frags {
			if err := s.Put(f); err != nil {
				t.Fatal(err)
			}
			if len(s.tail) >= tailCap {
				t.Fatalf("tail at %d bytes, cap %d", len(s.tail), tailCap)
			}
		}
	}
	if s.Stats().Syncs != 0 {
		t.Fatal("cap flush must not fsync")
	}
	for i, frags := range all {
		for _, f := range frags {
			if g, ok := s.Get(roots[i], f.Index); !ok || !reflect.DeepEqual(g, f) {
				t.Fatalf("fragment %d/%d unreadable across the flush boundary", i, f.Index)
			}
		}
	}

	root, big := mkFrags(t, 7, 16*tailCap)
	if err := s.Put(big[0]); err != nil {
		t.Fatal(err)
	}
	if len(s.tail) != 0 || cap(s.tail) > 2*tailCap {
		t.Fatalf("oversized record left len %d cap %d in the tail", len(s.tail), cap(s.tail))
	}
	if g, ok := s.Get(root, big[0].Index); !ok || !reflect.DeepEqual(g, big[0]) {
		t.Fatal("oversized record unreadable")
	}
}

// TestOpenCreatesNoFile: a volume that holds nothing has no file.  Open
// of a fresh path — parent directory included — touches nothing; puts
// sit in the tail; the first flush creates the file; and a store that
// is never written closes without having existed on disk.
func TestOpenCreatesNoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vols", "vol.log")
	root, frags := mkFrags(t, 61, 400)
	empty := func(when string) {
		t.Helper()
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("%s: directory holds %d entries (%v), want none", when, len(ents), err)
		}
	}

	idle := openStore(t, path, Config{})
	idle.Drop(root, 0)
	if err := idle.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := idle.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := idle.Recover(true); err != nil {
		t.Fatal(err)
	}
	if err := idle.Close(); err != nil {
		t.Fatal(err)
	}
	empty("after an idle store's whole life")

	s := openStore(t, path, Config{})
	for _, f := range frags[:3] {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	empty("after unsynced puts")
	if g, ok := s.Get(root, 1); !ok || !reflect.DeepEqual(g, frags[1]) {
		t.Fatal("tail-resident fragment unreadable before the file exists")
	}
	// A crash now loses the tail and leaves an empty volume, still with
	// no file.
	s.Crash()
	if err := s.Recover(true); err != nil {
		t.Fatal(err)
	}
	if len(s.Roots()) != 0 || s.Size() != 0 {
		t.Fatalf("crash before the first flush recovered %d roots, size %d", len(s.Roots()), s.Size())
	}
	empty("after a crash before the first flush")

	for _, f := range frags[:3] {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != s.Size() {
		t.Fatalf("after the first sync: stat %v, err %v, want a %d-byte file", fi, err, s.Size())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, path, Config{})
	defer s2.Close()
	if got := s2.Indexes(root); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("reopen sees %v", got)
	}
}
