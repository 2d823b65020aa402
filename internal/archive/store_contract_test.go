package archive_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"oceanstore/internal/archive"
	"oceanstore/internal/blobstore"
	"oceanstore/internal/guid"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// contractBackends are the two archive.Store implementations and
// whether each has something to make durable.  The contract test lives
// in an external package because blobstore imports archive.
var contractBackends = []struct {
	name    string
	durable bool
	open    func(t *testing.T) archive.Store
}{
	{"NodeStore", false, func(*testing.T) archive.Store { return archive.NewNodeStore() }},
	{"blobstore", true, func(t *testing.T) archive.Store {
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
// with several archives' fragments stored in one scrambled order, Scan
// walks in (root, index) order and stops when told, HeldRoots and
// HeldIndexes come back sorted and stable (nil when nothing is held),
// Put of a held (root, index) replaces the copy without adding one, and
// Drop forgets a fragment — and its root once the last fragment goes.
// Only the disk backend is Durable, and neither carries the listing
// methods the helpers replaced.
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
			if _, ok := s.(archive.Durable); ok != b.durable {
				t.Fatalf("Durable = %v, want %v", ok, b.durable)
			}
			for _, m := range []string{"Indexes", "Roots"} {
				if _, ok := reflect.TypeOf(s).MethodByName(m); ok {
					t.Fatalf("%s still defines %s", b.name, m)
				}
			}
			if archive.HeldRoots(s) != nil || archive.HeldIndexes(s, all[0].Root) != nil {
				t.Fatal("an empty store lists something")
			}
			for _, i := range order {
				if err := s.Put(all[i]); err != nil {
					t.Fatal(err)
				}
			}
			roots := archive.HeldRoots(s)
			if len(roots) != archives || !slices.IsSortedFunc(roots, guid.GUID.Compare) {
				t.Fatalf("HeldRoots = %v: want all %d archives in GUID order", roots, archives)
			}
			var want []string
			for _, root := range roots {
				idxs := archive.HeldIndexes(s, root)
				if len(idxs) != total || !slices.IsSorted(idxs) {
					t.Fatalf("HeldIndexes(%v) = %v: want all %d, ascending", root.Short(), idxs, total)
				}
				if again := archive.HeldIndexes(s, root); !reflect.DeepEqual(idxs, again) {
					t.Fatalf("HeldIndexes unstable across calls: %v vs %v", idxs, again)
				}
				for _, idx := range idxs {
					want = append(want, ref(root, idx))
				}
			}
			if got := scan(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("Scan order\n%v\n!= HeldRoots x HeldIndexes\n%v", got, want)
			}
			visits := 0
			s.Scan(func(guid.GUID, int) bool {
				visits++
				return visits < 3
			})
			if visits != 3 {
				t.Fatalf("Scan made %d visits after fn returned false at the third", visits)
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
			if idxs := archive.HeldIndexes(s, sf.Root); len(idxs) != total-1 || slices.Contains(idxs, sf.Index) {
				t.Fatalf("HeldIndexes after Drop = %v", idxs)
			}
			gone := roots[0]
			for _, idx := range archive.HeldIndexes(s, gone) {
				s.Drop(gone, idx)
			}
			if idxs := archive.HeldIndexes(s, gone); idxs != nil {
				t.Fatalf("HeldIndexes of a fully dropped root = %v, want none", idxs)
			}
			if got := archive.HeldRoots(s); !reflect.DeepEqual(got, roots[1:]) {
				t.Fatalf("HeldRoots after dropping %v = %v, want %v", gone.Short(), got, roots[1:])
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

// TestServeFragmentSkipsUnreadableCopies: a copy whose record fails its
// CRC on read is one the node cannot serve.  ServeFragment offers the
// next copy that reads back, or nothing — never a zero fragment flagged
// as held, which an auditor would book as a lie against an honest node.
func TestServeFragmentSkipsUnreadableCopies(t *testing.T) {
	dir := t.TempDir()
	vol := func(id simnet.NodeID) string { return filepath.Join(dir, fmt.Sprintf("vol-%06d.log", id)) }
	net := simnet.New(sim.NewKernel(3), simnet.Config{})
	svc := archive.NewService(net, net.AddRandomNodes(4, 100, 2))
	svc.SetStoreFactory(func(id simnet.NodeID) archive.Store {
		s, err := blobstore.Open(blobstore.Config{Path: vol(id)})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	defer svc.CloseStores()
	data := make([]byte, 2000)
	rand.New(rand.NewSource(3)).Read(data)
	root, err := svc.Archive(data, archive.Config{DataShards: 2, TotalFragments: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Eight fragments on four nodes: some holder keeps several, synced,
	// one equal-sized record each in ascending index order.
	var id simnet.NodeID
	var idxs []int
	for _, h := range svc.HoldersOf(root) {
		if idxs = archive.HeldIndexes(svc.Store(h), root); len(idxs) > 1 {
			id = h
			break
		}
	}
	if len(idxs) < 2 {
		t.Fatal("no node holds two fragments")
	}
	fi, err := os.Stat(vol(id))
	if err != nil {
		t.Fatal(err)
	}
	recLen := fi.Size() / int64(len(idxs))
	rot := func(k int) { // flip a payload byte of the k-th record on disk
		f, err := os.OpenFile(vol(id), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := make([]byte, 1)
		off := int64(k)*recLen + recLen/2
		f.ReadAt(b, off)
		b[0] ^= 0xFF
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
	}

	rot(0)
	if _, ok := svc.Store(id).Get(root, idxs[0]); ok {
		t.Fatal("a record failing its CRC still reads back")
	}
	sf, ok := svc.ServeFragment(id, root)
	if !ok || sf.Index != idxs[1] || !sf.Verify() {
		t.Fatalf("served (index %d, held %v, verifies %v); want the readable index %d", sf.Index, ok, sf.Verify(), idxs[1])
	}
	for k := 1; k < len(idxs); k++ {
		rot(k)
	}
	if sf, ok := svc.ServeFragment(id, root); ok {
		t.Fatalf("a node with no readable copy served index %d as held", sf.Index)
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
