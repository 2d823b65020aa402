package blobstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"oceanstore/internal/archive"
)

// TestTornWriteEveryOffset is the crash-recovery property test: kill
// the write of a volume record at EVERY byte offset — mid-magic,
// mid-length, mid-CRC, mid-payload, and exactly complete — and assert
// that recovery yields exactly the prefix of fully-synced fragments,
// never a corrupt or partial one.  Run twice: behind a synced prefix,
// and as the very first write of a volume that has no file yet.
func TestTornWriteEveryOffset(t *testing.T) {
	t.Run("behind-synced-prefix", func(t *testing.T) { tornWriteEveryOffset(t, 3) })
	t.Run("first-write", func(t *testing.T) { tornWriteEveryOffset(t, 0) })
}

func tornWriteEveryOffset(t *testing.T, nPrefix int) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 41, 400)
	s := openStore(t, path)
	defer func() { s.Close() }()

	// Durable prefix: nPrefix synced fragments.
	prefix := frags[:nPrefix]
	victim := frags[3]
	var prefixIdx []int
	for _, f := range prefix {
		prefixIdx = append(prefixIdx, f.Index)
	}
	for _, f := range prefix {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	base := s.size
	recLen := headerLen + len(appendPut(nil, victim))

	checkPrefix := func(j int) {
		t.Helper()
		for _, f := range prefix {
			g, ok := s.Get(root, f.Index)
			if !ok {
				t.Fatalf("offset %d: synced fragment %d lost", j, f.Index)
			}
			if !g.Verify() {
				t.Fatalf("offset %d: synced fragment %d corrupt after recovery", j, f.Index)
			}
		}
		if got := len(archive.HeldIndexes(s, root)); got > len(prefix)+1 {
			t.Fatalf("offset %d: recovery invented fragments: %d held", j, got)
		}
	}

	for j := 0; j <= recLen; j++ {
		if nPrefix == 0 {
			// Every lap tears the first write of a volume with no file.
			s.Close()
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			s = openStore(t, path)
		}
		s.TearNextAppend(j)
		if err := s.Put(victim); err != ErrCrashed {
			t.Fatalf("offset %d: torn put returned %v, want ErrCrashed", j, err)
		}
		if err := s.Recover(false); err != nil {
			t.Fatalf("offset %d: recovery failed: %v", j, err)
		}

		g, survived := s.Get(root, victim.Index)
		if j < recLen {
			// A torn record must vanish entirely: no byte short of the
			// full frame may produce a readable fragment.
			if survived {
				t.Fatalf("offset %d: torn record survived recovery (%d of %d bytes written)", j, j, recLen)
			}
			if got := s.size; got != base {
				t.Fatalf("offset %d: torn tail not truncated: size %d, want %d", j, got, base)
			}
			if !reflect.DeepEqual(archive.HeldIndexes(s, root), prefixIdx) {
				t.Fatalf("offset %d: index %v, want exactly the synced prefix %v", j, archive.HeldIndexes(s, root), prefixIdx)
			}
		} else {
			// The full record hit the file before the crash; recovery
			// must keep it, intact.
			if !survived || !g.Verify() {
				t.Fatalf("offset %d: complete record lost or corrupt after recovery", j)
			}
			if !reflect.DeepEqual(g, victim) {
				t.Fatalf("offset %d: recovered fragment differs from what was written", j)
			}
		}
		checkPrefix(j)

		// Reset for the next offset: drop the survivor if the complete
		// record made it (only possible at j == recLen, the last lap).
		if survived {
			s.Drop(root, victim.Index)
		}
	}

	// A final sanity pass: after ~recLen crash/recover cycles the store
	// still accepts writes and syncs cleanly.
	if err := s.Put(victim); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if g, ok := s.Get(root, victim.Index); !ok || !g.Verify() {
		t.Fatal("store unusable after the crash gauntlet")
	}
}

// TestTornWriteThenMoreWrites: a torn record followed (after recovery)
// by further valid appends must leave a volume whose fresh open sees
// every surviving record — the truncation really removed the tear
// rather than leaving a hole for the scan to trip on.
func TestTornWriteThenMoreWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 43, 600)
	s := openStore(t, path)
	for _, f := range frags[:2] {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	// Tear fragment 2 mid-payload, recover, then write it again for
	// real plus two more.
	recLen := headerLen + len(appendPut(nil, frags[2]))
	s.TearNextAppend(recLen / 2)
	if err := s.Put(frags[2]); err != ErrCrashed {
		t.Fatalf("torn put returned %v", err)
	}
	if err := s.Recover(false); err != nil {
		t.Fatal(err)
	}
	for _, f := range frags[2:5] {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, path)
	defer s2.Close()
	want := []int{0, 1, 2, 3, 4}
	if got := archive.HeldIndexes(s2, root); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh open sees %v, want %v", got, want)
	}
	for _, idx := range want {
		if g, ok := s2.Get(root, idx); !ok || !g.Verify() {
			t.Fatalf("fragment %d corrupt after tear+recover+append history", idx)
		}
	}
}

// TestTornFlushEveryOffset extends the kill-at-every-byte property to
// the coalesced path: a tail of three unsynced records behind a synced
// prefix goes out in one pwrite, and that pwrite is cut at EVERY byte
// offset.  A plain recovery must keep exactly the longest run of whole
// records that reached the file; a drop-unsynced recovery exactly the
// synced prefix.  Nothing short, corrupt or duplicated may ever be
// readable, and a fresh open must agree with the recovered store.  Run
// twice: behind a synced prefix, and with nothing synced — the torn
// flush is then the first write the volume's file ever sees.
func TestTornFlushEveryOffset(t *testing.T) {
	t.Run("behind-synced-prefix", func(t *testing.T) { tornFlushEveryOffset(t, 2) })
	t.Run("first-write", func(t *testing.T) { tornFlushEveryOffset(t, 0) })
}

func tornFlushEveryOffset(t *testing.T, nSynced int) {
	dir := t.TempDir()
	root, frags := mkFrags(t, 47, 400)
	synced, tail := frags[:nSynced], frags[2:5]

	// ends[k] is the tail offset at which record k is complete.
	var ends []int
	total := 0
	for _, f := range tail {
		total += headerLen + len(appendPut(nil, f))
		ends = append(ends, total)
	}

	check := func(j int, dropUnsynced bool) {
		path := filepath.Join(dir, "vol.log")
		os.Remove(path)
		s := openStore(t, path)
		for _, f := range synced {
			if err := s.Put(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		base := s.size
		for _, f := range tail {
			if err := s.Put(f); err != nil {
				t.Fatal(err)
			}
		}
		if len(s.tail) != total {
			t.Fatalf("tail holds %d bytes, want all %d unsynced record bytes", len(s.tail), total)
		}

		s.crashFlush(j)
		if err := s.Put(tail[0]); err != ErrCrashed {
			t.Fatalf("offset %d: crashed store accepted a put: %v", j, err)
		}
		if err := s.Recover(dropUnsynced); err != nil {
			t.Fatalf("offset %d: recovery failed: %v", j, err)
		}

		whole := 0 // tail records entirely inside the first j bytes
		if !dropUnsynced {
			for _, e := range ends {
				if e <= j {
					whole++
				}
			}
		}
		want := append(append([]archive.StoredFragment(nil), synced...), tail[:whole]...)
		wantSize := base
		if whole > 0 {
			wantSize += int64(ends[whole-1])
		}
		verify := func(st *Store, who string) {
			t.Helper()
			var wantIdx []int
			for _, f := range want {
				wantIdx = append(wantIdx, f.Index)
				g, ok := st.Get(root, f.Index)
				if !ok || !reflect.DeepEqual(g, f) {
					t.Fatalf("offset %d drop=%v: %s lost or mangled fragment %d", j, dropUnsynced, who, f.Index)
				}
			}
			if got := archive.HeldIndexes(st, root); !reflect.DeepEqual(got, wantIdx) {
				t.Fatalf("offset %d drop=%v: %s holds %v, want %v", j, dropUnsynced, who, got, wantIdx)
			}
			if got := st.size; got != wantSize {
				t.Fatalf("offset %d drop=%v: %s size %d, want %d", j, dropUnsynced, who, got, wantSize)
			}
		}
		verify(s, "recovered store")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, path)
		verify(s2, "fresh open")
		s2.Close()
	}
	for j := 0; j <= total; j++ {
		check(j, false)
		check(j, true)
	}
}

// TestTearFlushesTailAhead: a torn append must not cost the appends
// completed before it, even though they were still in the tail — the
// tail goes out ahead of the torn record in the same write.
func TestTearFlushesTailAhead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.log")
	root, frags := mkFrags(t, 53, 400)
	s := openStore(t, path)
	defer s.Close()
	for _, f := range frags[:3] {
		if err := s.Put(f); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Flushes != 0 {
		t.Fatal("unsynced puts were flushed one by one")
	}
	s.TearNextAppend(7)
	if err := s.Put(frags[3]); err != ErrCrashed {
		t.Fatalf("torn put returned %v", err)
	}
	if err := s.Recover(false); err != nil {
		t.Fatal(err)
	}
	if got, want := archive.HeldIndexes(s, root), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tear kept %v, want every completed append %v", got, want)
	}
	if s.Stats().TruncatedBytes != 7 {
		t.Fatalf("truncated %d bytes, want the 7 torn ones", s.Stats().TruncatedBytes)
	}
}
