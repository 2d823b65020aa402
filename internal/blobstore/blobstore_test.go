package blobstore

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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

func openStore(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTripAndReopen: fragments put and synced survive a close and
// reopen byte-for-byte, and the store contract (sorted held indexes,
// Put-verifies, Get-returns-equal) matches the in-memory NodeStore.
func TestRoundTripAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 1, 3000)
	s := openStore(t, path)

	// Store in scrambled order; indexes must come back sorted (the
	// same determinism contract NodeStore pins).
	for _, i := range rand.New(rand.NewSource(2)).Perm(len(frags)) {
		if err := s.Put(frags[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := archive.HeldIndexes(s, root); !sort.IntsAreSorted(got) || len(got) != len(frags) {
		t.Fatalf("held indexes wrong: %v", got)
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

	s2 := openStore(t, path)
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
	s := openStore(t, path)
	for _, f := range frags {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	s.Drop(root, frags[2].Index)
	s.Drop(root, frags[5].Index)
	if s.size == s.live {
		t.Fatal("drops left no dead bytes")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, path)
	defer s2.Close()
	want := []int{0, 1, 3, 4, 6, 7}
	if got := archive.HeldIndexes(s2, root); !reflect.DeepEqual(got, want) {
		t.Fatalf("indexes after reopen = %v, want %v", got, want)
	}
}

// TestCompactReclaimsDeadBytes: compaction drops tombstoned records,
// keeps every live fragment readable, and the compacted volume
// recovers identically.
func TestCompactReclaimsDeadBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 7, 4000)
	s := openStore(t, path)
	for _, f := range frags {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		s.Drop(root, frags[i].Index)
	}
	before := s.size
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.size >= before {
		t.Fatalf("compaction did not shrink the volume: %d -> %d", before, s.size)
	}
	if s.size != s.live {
		t.Fatalf("dead bytes after compaction: %d", s.size-s.live)
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
	s2 := openStore(t, path)
	defer s2.Close()
	if got := len(archive.HeldIndexes(s2, root)); got != 4 {
		t.Fatalf("compacted volume recovered %d fragments, want 4", got)
	}
}

// TestAutoCompactTriggers: enough dropped weight trips the automatic
// threshold without an explicit Compact call, and dead bytes past the
// floor but under half the volume do not.
func TestAutoCompactTriggers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 9, 3*compactMinDead) // eight records of ¾ MiB
	s := openStore(t, path)
	defer s.Close()
	for _, f := range frags {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if i == 3 && s.Stats().Compactions != 0 {
			t.Fatalf("compacted with %d dead bytes of %d, under half the volume", s.size-s.live, s.size)
		}
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
	s := openStore(t, path)
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
	s2 := openStore(t, path)
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
	s := openStore(t, path)
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
	if s.size == s.synced {
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
	if got := len(archive.HeldIndexes(s, root)); got != len(frags) {
		t.Fatalf("plain recovery kept %d fragments, want %d", got, len(frags))
	}
}

// TestRecoveryIgnoresGarbageTail: arbitrary garbage appended to the
// volume (a torn write that scribbled junk) is truncated at open.
func TestRecoveryIgnoresGarbageTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 17, 1000)
	s := openStore(t, path)
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

	s2 := openStore(t, path)
	defer s2.Close()
	if got := len(archive.HeldIndexes(s2, root)); got != len(frags) {
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
	s := openStore(t, path)
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
	if s.size != s.live {
		t.Fatalf("compaction left %d dead bytes", s.size-s.live)
	}
	want := []int{0, 1, 3, 4, 5, 6, 7}
	if got := archive.HeldIndexes(s, root); !reflect.DeepEqual(got, want) {
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

	s2 := openStore(t, path)
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
	s := openStore(t, path)
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

	idle := openStore(t, path)
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

	s := openStore(t, path)
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
	if len(archive.HeldRoots(s)) != 0 || s.size != 0 {
		t.Fatalf("crash before the first flush recovered %d roots, size %d", len(archive.HeldRoots(s)), s.size)
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
	if fi, err := os.Stat(path); err != nil || fi.Size() != s.size {
		t.Fatalf("after the first sync: stat %v, err %v, want a %d-byte file", fi, err, s.size)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, path)
	defer s2.Close()
	if got := archive.HeldIndexes(s2, root); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("reopen sees %v", got)
	}
}

// TestCrashedAndClosedStoresRefuse: a crashed store serves and takes
// nothing until it recovers, and a closed one nothing at all — the
// errors name which, and a refused Drop or Tamper leaves the fragment.
func TestCrashedAndClosedStoresRefuse(t *testing.T) {
	root, frags := mkFrags(t, 71, 400)
	s := openStore(t, filepath.Join(t.TempDir(), "vol.log"))
	if err := s.Put(frags[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	refuses := func(want error) {
		t.Helper()
		if _, ok := s.Get(root, 0); ok {
			t.Fatalf("%v store served a fragment", want)
		}
		if s.Tamper(root, 0, func(d []byte) { d[0] ^= 1 }) {
			t.Fatalf("%v store took a tamper", want)
		}
		s.Drop(root, 0)
		for name, err := range map[string]error{"Put": s.Put(frags[1]), "Sync": s.Sync(), "Compact": s.Compact()} {
			if !errors.Is(err, want) {
				t.Fatalf("%s on a %v store: %v", name, want, err)
			}
		}
	}
	s.Crash()
	refuses(ErrCrashed)
	if err := s.Recover(true); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(root, 0); !ok || !reflect.DeepEqual(got, frags[0]) {
		t.Fatal("recovery lost the synced fragment the crashed store refused to drop")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	refuses(ErrClosed)
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Recover(false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recover on a closed store: %v", err)
	}
}

// oneFragRoots builds n archives and keeps one fragment of each — the
// shape of a deep-archive server's volume, which holds a fragment of
// each of many archives.
func oneFragRoots(t *testing.T, n int) []archive.StoredFragment {
	t.Helper()
	out := make([]archive.StoredFragment, n)
	data := make([]byte, 16)
	for i := range out {
		binary.BigEndian.PutUint64(data, uint64(i))
		_, frags, err := archive.Encode(data, archive.Config{DataShards: 1, TotalFragments: 2})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = frags[0]
	}
	return out
}

// TestScanAllocFree: Scan walks the index in place.  The scrub
// scheduler enumerates every volume once per pass, and the archive's
// held-fragment helpers go through Scan, so it must not build a sorted
// copy of what it walks.
func TestScanAllocFree(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "vol.log"))
	defer s.Close()
	for _, f := range oneFragRoots(t, 500) {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	visits := 0
	count := func(guid.GUID, int) bool {
		visits++
		return true
	}
	if a := testing.AllocsPerRun(10, func() { s.Scan(count) }); a != 0 {
		t.Fatalf("Scan allocated %.1f times per call, want 0", a)
	}
	if visits != 11*500 { // AllocsPerRun adds one warm-up call
		t.Fatalf("Scan made %d visits, want %d", visits, 11*500)
	}
}

// TestVolumeBytesPerFragment bounds the live heap a synced volume keeps
// per fragment it holds: one index row (key and record ref) with its
// share of slice growth, plus the volume's fixed costs spread thin.  A
// map per root cost ≈340 B per fragment here.
func TestVolumeBytesPerFragment(t *testing.T) {
	const roots, bound = 5000, 64 * 1.25
	frags := oneFragRoots(t, roots)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := openStore(t, filepath.Join(t.TempDir(), "vol.log"))
	defer s.Close()
	for _, f := range frags {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(frags)
	perFrag := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / roots
	t.Logf("%.0f B of live heap per fragment over %d one-fragment roots", perFrag, roots)
	if perFrag > bound {
		t.Fatalf("%.0f B of live heap per fragment, bound %.0f", perFrag, bound)
	}
}
