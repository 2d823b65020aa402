package archive_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"oceanstore/internal/archive"
	"oceanstore/internal/blobstore"
	"oceanstore/internal/guid"
)

// contractBackends are the two archive.Store implementations.  The
// contract test lives in an external package because blobstore imports
// archive.
var contractBackends = []struct {
	name string
	open func(t *testing.T) archive.Store
}{
	{"NodeStore", func(*testing.T) archive.Store { return archive.NewNodeStore() }},
	{"blobstore", func(t *testing.T) archive.Store {
		s, err := blobstore.Open(blobstore.Config{Path: filepath.Join(t.TempDir(), "vol.log")})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}},
}

// TestIndexesSortedDeterministic pins the Store contract both backends
// share, so dispersal, scrub and repair decisions fed from a store
// cannot vary with the order fragments arrived in or with the backend:
// with several archives' fragments stored in one scrambled order,
// Indexes and Roots come back sorted and stable, Scan visits exactly
// Roots × Indexes in that order, Put of a held (root, index) replaces
// the copy without adding one, and Drop forgets a fragment — and its
// root once the last fragment goes.
func TestIndexesSortedDeterministic(t *testing.T) {
	const archives, total = 5, 16
	rng := rand.New(rand.NewSource(5))
	byRoot := map[guid.GUID][]archive.StoredFragment{}
	var all []archive.StoredFragment
	for a := 0; a < archives; a++ {
		data := make([]byte, 1000+a)
		rng.Read(data)
		root, frags, err := archive.Encode(data, archive.Config{DataShards: 4, TotalFragments: total})
		if err != nil {
			t.Fatal(err)
		}
		byRoot[root] = frags
		all = append(all, frags...)
	}
	order := rng.Perm(len(all))
	for _, b := range contractBackends {
		t.Run(b.name, func(t *testing.T) {
			s := b.open(t)
			for _, i := range order {
				if err := s.Put(all[i]); err != nil {
					t.Fatal(err)
				}
			}
			roots := s.Roots()
			if len(roots) != archives || !slices.IsSortedFunc(roots, guid.GUID.Compare) {
				t.Fatalf("Roots = %v: want all %d archives in GUID order", roots, archives)
			}
			var want []string
			for _, root := range roots {
				idxs := s.Indexes(root)
				if len(idxs) != total || !slices.IsSorted(idxs) {
					t.Fatalf("Indexes(%v) = %v: want all %d, ascending", root.Short(), idxs, total)
				}
				if again := s.Indexes(root); !reflect.DeepEqual(idxs, again) {
					t.Fatalf("Indexes unstable across calls: %v vs %v", idxs, again)
				}
				for _, idx := range idxs {
					want = append(want, ref(root, idx))
				}
			}
			if got := scan(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("Scan order\n%v\n!= Roots x Indexes\n%v", got, want)
			}

			// Replace: rot a held copy, then Put the good one over it.
			sf := byRoot[roots[2]][7]
			if !s.(archive.Tamperable).Tamper(sf.Root, sf.Index, func(d []byte) { d[0] ^= 0xFF }) {
				t.Fatal("Tamper found no fragment to rot")
			}
			if got, ok := s.Get(sf.Root, sf.Index); !ok || got.Verify() {
				t.Fatal("rotted copy still verifies")
			}
			if err := s.Put(sf); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(sf.Root, sf.Index); !ok || !reflect.DeepEqual(got, sf) {
				t.Fatal("Put did not replace the rotted copy")
			}
			if got := scan(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("replacing a copy changed the held set:\n%v", got)
			}

			// Drop one fragment, then every fragment of one root.
			s.Drop(sf.Root, sf.Index)
			s.Drop(sf.Root, sf.Index) // already gone: a no-op
			if _, ok := s.Get(sf.Root, sf.Index); ok {
				t.Fatal("dropped fragment still readable")
			}
			if idxs := s.Indexes(sf.Root); len(idxs) != total-1 || slices.Contains(idxs, sf.Index) {
				t.Fatalf("Indexes after Drop = %v", idxs)
			}
			gone := roots[0]
			for _, idx := range s.Indexes(gone) {
				s.Drop(gone, idx)
			}
			if s.Indexes(gone) != nil {
				t.Fatalf("Indexes of a fully dropped root = %v, want none", s.Indexes(gone))
			}
			if got := s.Roots(); !reflect.DeepEqual(got, roots[1:]) {
				t.Fatalf("Roots after dropping %v = %v, want %v", gone.Short(), got, roots[1:])
			}
			want = slices.DeleteFunc(want, func(r string) bool {
				return r == ref(sf.Root, sf.Index) || r[:8] == gone.Short()
			})
			if got := scan(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("Scan after Drop\n%v\nwant\n%v", got, want)
			}
		})
	}
}

func ref(root guid.GUID, idx int) string { return root.Short() + "/" + string(rune('a'+idx)) }

// scan lists a store's references in Scan order.
func scan(s archive.Store) []string {
	var out []string
	s.Scan(func(root guid.GUID, idx int) bool {
		out = append(out, ref(root, idx))
		return true
	})
	return out
}
