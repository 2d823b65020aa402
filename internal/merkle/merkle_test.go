package merkle

import (
	"crypto/sha1"
	"math/rand"
	"testing"
	"testing/quick"

	"oceanstore/internal/guid"
)

func fragments(r *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		r.Read(out[i])
	}
	return out
}

func TestAllProofsVerify(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 8, 13, 16, 17, 32, 100} {
		frags := fragments(r, n, 64)
		tree := Build(frags)
		if tree.Leaves() != n {
			t.Fatalf("n=%d: leaves = %d", n, tree.Leaves())
		}
		for i := 0; i < n; i++ {
			if !Verify(frags[i], i, n, tree.Proof(i), tree.Root()) {
				t.Fatalf("n=%d: fragment %d failed verification", n, i)
			}
		}
	}
}

func TestCorruptedFragmentRejected(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	frags := fragments(r, 16, 64)
	tree := Build(frags)
	bad := append([]byte(nil), frags[5]...)
	bad[10] ^= 1
	if Verify(bad, 5, 16, tree.Proof(5), tree.Root()) {
		t.Fatal("corrupted fragment verified")
	}
}

func TestWrongIndexRejected(t *testing.T) {
	// "checking that the data requested was the data returned": a valid
	// fragment presented under another fragment's index must fail.
	r := rand.New(rand.NewSource(3))
	frags := fragments(r, 16, 64)
	tree := Build(frags)
	if Verify(frags[5], 6, 16, tree.Proof(5), tree.Root()) {
		t.Fatal("fragment verified under wrong index")
	}
	if Verify(frags[5], -1, 16, tree.Proof(5), tree.Root()) {
		t.Fatal("negative index verified")
	}
	if Verify(frags[5], 16, 16, tree.Proof(5), tree.Root()) {
		t.Fatal("out-of-range index verified")
	}
}

func TestCorruptedProofRejected(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	frags := fragments(r, 9, 32)
	tree := Build(frags)
	proof := tree.Proof(4)
	proof[1][0] ^= 0xff
	if Verify(frags[4], 4, 9, proof, tree.Root()) {
		t.Fatal("corrupted proof verified")
	}
	// Truncated and padded proofs must also fail.
	good := tree.Proof(4)
	if Verify(frags[4], 4, 9, good[:len(good)-1], tree.Root()) {
		t.Fatal("truncated proof verified")
	}
	padded := append(append([]guid.GUID{}, good...), guid.GUID{})
	if Verify(frags[4], 4, 9, padded, tree.Root()) {
		t.Fatal("padded proof verified")
	}
}

func TestWrongRootRejected(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := Build(fragments(r, 8, 32))
	fragsB := fragments(r, 8, 32)
	b := Build(fragsB)
	if Verify(fragsB[0], 0, 8, b.Proof(0), a.Root()) {
		t.Fatal("fragment verified against a different archive's root")
	}
}

func TestRootIsDeterministicContentAddress(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	frags := fragments(r, 10, 40)
	a, b := Build(frags), Build(frags)
	if a.Root() != b.Root() {
		t.Fatal("same fragments must give same root GUID")
	}
	frags[3][0] ^= 1
	if Build(frags).Root() == a.Root() {
		t.Fatal("changed fragment must change root GUID")
	}
}

func TestSingleFragment(t *testing.T) {
	frags := [][]byte{[]byte("lonely")}
	tree := Build(frags)
	proof := tree.Proof(0)
	if len(proof) != 0 {
		t.Fatalf("single-leaf proof should be empty, got %d entries", len(proof))
	}
	if !Verify(frags[0], 0, 1, proof, tree.Root()) {
		t.Fatal("single-leaf verification failed")
	}
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty build must panic")
		}
	}()
	Build(nil)
}

func TestProofPanicsOutOfRange(t *testing.T) {
	tree := Build([][]byte{[]byte("a"), []byte("b")})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range proof must panic")
		}
	}()
	tree.Proof(2)
}

func TestQuickRandomTreesVerify(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(nRaw uint8, pick uint8) bool {
		n := int(nRaw%60) + 1
		frags := fragments(r, n, 16)
		tree := Build(frags)
		i := int(pick) % n
		return Verify(frags[i], i, n, tree.Proof(i), tree.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafInnerDomainSeparation(t *testing.T) {
	// A two-leaf tree's root must differ from the leaf hash of the
	// concatenation-with-tag, i.e. leaves and inner nodes cannot be
	// confused.  Checked indirectly: a tree over [h(a)||h(b)] as a single
	// fragment must not equal the tree over [a, b].
	a, b := []byte("aaa"), []byte("bbb")
	two := Build([][]byte{a, b})
	h := sha1.New()
	ha, hb := hashLeaf(h, a), hashLeaf(h, b)
	fake := Build([][]byte{append(ha[:], hb[:]...)})
	if two.Root() == fake.Root() {
		t.Fatal("leaf/inner domain separation broken")
	}
}

func TestHasherMatchesBuild(t *testing.T) {
	// The streaming Hasher must produce Build's root bit-for-bit at
	// every leaf count, including the odd-carry shapes (3, 5, 7, 11...)
	// where the mountain-range fold has to mimic carrying nodes up
	// unchanged.
	r := rand.New(rand.NewSource(8))
	for n := 1; n <= 65; n++ {
		frags := fragments(r, n, 24)
		hs := NewHasher()
		for _, f := range frags {
			hs.Leaf(f)
		}
		if hs.leaves != n {
			t.Fatalf("n=%d: %d leaves counted", n, hs.leaves)
		}
		if got, want := hs.Root(), Build(frags).Root(); got != want {
			t.Fatalf("n=%d: Hasher root diverges from Build", n)
		}
		// Root is idempotent once collapsed.
		if hs.Root() != Build(frags).Root() {
			t.Fatalf("n=%d: second Root() call diverged", n)
		}
	}
}

func TestHasherReset(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	frags := fragments(r, 5, 16)
	hs := NewHasher()
	hs.Leaf([]byte("stale"))
	hs.Reset()
	for _, f := range frags {
		hs.Leaf(f)
	}
	if hs.Root() != Build(frags).Root() {
		t.Fatal("Reset left stale state behind")
	}
}

func TestHasherPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Root() on an empty Hasher must panic")
		}
	}()
	NewHasher().Root()
}
