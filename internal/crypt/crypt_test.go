package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"

	"oceanstore/internal/guid"
	"oceanstore/internal/par"
)

func TestBlockCipherRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	bc := NewBlockCipher(NewBlockKey(r))
	plain := []byte("persistent object block contents")
	ct := bc.EncryptBlock(7, plain)
	if bytes.Equal(ct, plain) {
		t.Fatal("ciphertext equals plaintext")
	}
	if got := bc.DecryptBlock(7, ct); !bytes.Equal(got, plain) {
		t.Fatal("round trip failed")
	}
}

func TestBlockCipherPositionDependence(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	bc := NewBlockCipher(NewBlockKey(r))
	plain := []byte("same plaintext")
	a := bc.EncryptBlock(1, plain)
	b := bc.EncryptBlock(2, plain)
	if bytes.Equal(a, b) {
		t.Fatal("same plaintext at different positions must differ")
	}
	// Deterministic per position: required by compare-block.
	if !bytes.Equal(a, bc.EncryptBlock(1, plain)) {
		t.Fatal("encryption must be deterministic per (key, position)")
	}
	// Different keys must differ.
	other := NewBlockCipher(NewBlockKey(r))
	if bytes.Equal(a, other.EncryptBlock(1, plain)) {
		t.Fatal("different keys produced same ciphertext")
	}
}

func TestBlockDigestEnablesCompareBlock(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	bc := NewBlockCipher(NewBlockKey(r))
	plain := []byte("inbox entry 42")
	// Client computes the digest of the expected ciphertext; server
	// computes the digest of what it stores; they must agree without the
	// server ever holding the key.
	clientSide := BlockDigest(7, bc.EncryptBlock(3, plain))
	serverStored := bc.EncryptBlock(3, plain)
	if BlockDigest(7, serverStored) != clientSide {
		t.Fatal("compare-block digests disagree")
	}
	serverStored[0] ^= 1
	if BlockDigest(7, serverStored) == clientSide {
		t.Fatal("digest failed to detect modification")
	}
}

// TestBlockCipherMatchesLibraryCTR pins the hand-rolled keystream to
// crypto/cipher's CTR mode: same key, same position-derived IV, byte-
// identical ciphertext.  Guards the manual counter increment against
// drift from the reference implementation.
func TestBlockCipherMatchesLibraryCTR(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	key := NewBlockKey(r)
	bc := NewBlockCipher(key)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 15, 16, 17, 256, 1000} {
		plain := make([]byte, size)
		r.Read(plain)
		for _, pos := range []uint64{0, 1, 7, 1 << 40, ^uint64(0)} {
			var iv [aes.BlockSize]byte
			copy(iv[:8], "osblkpos")
			binary.BigEndian.PutUint64(iv[8:], pos)
			want := make([]byte, size)
			cipher.NewCTR(block, iv[:]).XORKeyStream(want, plain)
			if got := bc.EncryptBlock(pos, plain); !bytes.Equal(got, want) {
				t.Fatalf("size %d pos %d: manual CTR diverges from cipher.NewCTR", size, pos)
			}
		}
	}
}

func TestQuickCipherRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	bc := NewBlockCipher(NewBlockKey(r))
	f := func(pos uint64, data []byte) bool {
		return bytes.Equal(bc.DecryptBlock(pos, bc.EncryptBlock(pos, data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignerSignVerify(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := NewSigner(r)
	msg := []byte("update: append block 9")
	sig := s.Sign(msg)
	if !VerifySig(s.Public(), msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if VerifySig(s.Public(), []byte("update: append block 10"), sig) {
		t.Fatal("signature verified for altered message")
	}
	other := NewSigner(r)
	if VerifySig(other.Public(), msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
	if VerifySig([]byte("short"), msg, sig) {
		t.Fatal("malformed key accepted")
	}
	if VerifySig(s.Public(), msg, sig[:10]) {
		t.Fatal("malformed signature accepted")
	}
}

// countingEntropy yields 1, 2, 3, ... and so counts its draws.
type countingEntropy struct{ n uint64 }

func (c *countingEntropy) Uint64() uint64 { c.n++; return c.n }

// TestSignerSeedDrawnAtConstruction: NewSigner takes its four words
// from the entropy source at once — the kernel RNG's sequence cannot
// depend on which signers ever sign — and derives nothing until asked.
// The pair it then derives is Ed25519's for that seed.
func TestSignerSeedDrawnAtConstruction(t *testing.T) {
	src := &countingEntropy{}
	created0, derived0 := SignerStats()
	const n = 50
	signers := make([]*Signer, n)
	for i := range signers {
		signers[i] = NewSigner(src)
		if want := uint64(4 * (i + 1)); src.n != want {
			t.Fatalf("after %d signers the source has been drawn %d times, want %d", i+1, src.n, want)
		}
	}
	if created, derived := SignerStats(); created-created0 != n || derived != derived0 {
		t.Fatalf("stats after construction: +%d created, +%d derived", created-created0, derived-derived0)
	}
	for i, s := range signers {
		var seed [ed25519.SeedSize]byte
		for w := 0; w < 4; w++ {
			binary.BigEndian.PutUint64(seed[8*w:], uint64(4*i+w+1))
		}
		want := ed25519.NewKeyFromSeed(seed[:]).Public().(ed25519.PublicKey)
		if !bytes.Equal(s.Public(), want) {
			t.Fatalf("signer %d: public key is not NewKeyFromSeed(seed).Public()", i)
		}
	}
	if src.n != 4*n {
		t.Fatalf("deriving keys drew from the source: %d draws", src.n)
	}
	if _, derived := SignerStats(); derived-derived0 != n {
		t.Fatalf("%d keys counted derived, want %d", derived-derived0, n)
	}
	// Golden bytes, taken from the eager implementation this replaced:
	// the seed 00..01 00..02 00..03 00..04.
	const goldenPub = "e4e2e4de674ba1c9043e8bf2afb5ad838b86bc223353c6b3cddb4728caaeae17"
	const goldenSig = "5ee1e8e0d6f355337edb7cf4617b03bb3eba1a9dd40198393ac7da0760eb7d0d" +
		"523e186f8042d80bc70db5847b8c5c2ef9de790ee2eb9b48c27b12d1713e8709"
	if got := hex.EncodeToString(signers[0].Public()); got != goldenPub {
		t.Fatalf("public key %s, want %s", got, goldenPub)
	}
	if got := hex.EncodeToString(signers[0].Sign([]byte("oceanstore"))); got != goldenSig {
		t.Fatalf("signature %s, want %s", got, goldenSig)
	}
}

// TestSignerFirstUseOnHelper: a signer nobody has used yet is handed
// to par's helper, which derives the pair, while the caller asks for
// the public key.  Run under -race (make race-par) this is the check
// that first use is safe from either side.
func TestSignerFirstUseOnHelper(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	msg := []byte("tentative update")
	for i := 0; i < 100; i++ {
		s := NewSigner(r)
		task := par.Start(func() []byte { return s.Sign(msg) })
		pub, id := s.Public(), s.GUID()
		if !VerifySig(pub, msg, task.Wait()) {
			t.Fatalf("signer %d: helper's signature does not verify under the caller's key", i)
		}
		if !bytes.Equal(s.Sign(msg), task.Wait()) || id != s.GUID() {
			t.Fatalf("signer %d: caller and helper disagree", i)
		}
	}
}

// TestSigMemoNeverChangesAVerdict: the memo answers only for the exact
// triple it was seeded with or has fully verified; every other input
// gets VerifySig's own answer, and a rejection leaves it as it was.
func TestSigMemoNeverChangesAVerdict(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	s, other := NewSigner(r), NewSigner(r)
	msg := []byte("owner says use ACL x for object foo")
	sig := s.Sign(msg)
	flipped := func(b []byte) []byte { c := bytes.Clone(b); c[3] ^= 0x10; return c }

	var cold SigMemo
	if ok, hit := cold.Verify(s.Public(), msg, flipped(sig)); ok || hit || cold != (SigMemo{}) {
		t.Fatal("empty memo accepted or remembered a bad signature")
	}
	if ok, hit := cold.Verify(s.Public(), msg, sig); !ok || hit {
		t.Fatalf("empty memo, valid triple: ok=%v hit=%v, want a full successful check", ok, hit)
	}
	if ok, hit := cold.Verify(s.Public(), msg, sig); !ok || !hit {
		t.Fatal("a verified triple was not remembered")
	}

	var seeded SigMemo
	seeded.Begin(s.Public(), msg)
	if ok, hit := seeded.Verify(s.Public(), msg, sig); !ok || hit {
		t.Fatal("a memo begun but not ended answered for the triple")
	}
	seeded = SigMemo{}
	seeded.Begin(s.Public(), msg)
	seeded.End(sig)
	if seeded != cold {
		t.Fatal("seeding and verifying the same triple leave different memos")
	}
	for name, in := range map[string][3][]byte{
		"statement": {s.Public(), flipped(msg), sig},
		"key":       {flipped(s.Public()), msg, sig},
		"other key": {other.Public(), msg, sig},
		"signature": {s.Public(), msg, flipped(sig)},
	} {
		before := seeded
		if ok, hit := seeded.Verify(in[0], in[1], in[2]); ok || hit {
			t.Fatalf("tampered %s: ok=%v hit=%v", name, ok, hit)
		}
		if seeded != before {
			t.Fatalf("tampered %s: the rejection changed the memo", name)
		}
	}
	if ok, hit := seeded.Verify(s.Public(), msg, sig); !ok || !hit {
		t.Fatal("the seeded triple no longer hits after rejections")
	}
}

func TestSignerGUIDSelfCertifying(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	a, b := NewSigner(r), NewSigner(r)
	if a.GUID() == b.GUID() {
		t.Fatal("distinct signers share a GUID")
	}
	if a.GUID() == guid.Zero {
		t.Fatal("zero GUID")
	}
}

func TestKeyRing(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	kr := NewKeyRing()
	obj := NewSigner(r).GUID()
	key := NewBlockKey(r)
	if _, ok := kr.Key(obj); ok {
		t.Fatal("key present before grant")
	}
	kr.Grant(obj, key)
	got, ok := kr.Key(obj)
	if !ok || got != key {
		t.Fatal("granted key not returned")
	}
	kr.Revoke(obj)
	if _, ok := kr.Key(obj); ok {
		t.Fatal("revoked key still present")
	}
}

func TestSearchFindsWordPositions(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	sk := NewSearchKey(NewBlockKey(r))
	words := []string{"the", "global", "ocean", "stores", "the", "ocean"}
	idx := sk.BuildIndex(words)

	hits := idx.Search(sk.Trapdoor("ocean"))
	if len(hits) != 2 || hits[0] != 2 || hits[1] != 5 {
		t.Fatalf("ocean hits = %v, want [2 5]", hits)
	}
	hits = idx.Search(sk.Trapdoor("the"))
	if len(hits) != 2 || hits[0] != 0 || hits[1] != 4 {
		t.Fatalf("the hits = %v, want [0 4]", hits)
	}
	if hits := idx.Search(sk.Trapdoor("absent")); len(hits) != 0 {
		t.Fatalf("absent word matched at %v", hits)
	}
}

func TestSearchRequiresTrapdoor(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	sk := NewSearchKey(NewBlockKey(r))
	idx := sk.BuildIndex([]string{"secret", "secret", "secret"})
	// A forged trapdoor (random X) must not match: the server cannot
	// initiate searches on its own.
	forged := Trapdoor{X: make([]byte, searchCellWidth), KX: make([]byte, 20)}
	r.Read(forged.X)
	r.Read(forged.KX)
	if hits := idx.Search(forged); len(hits) != 0 {
		t.Fatalf("forged trapdoor matched at %v", hits)
	}
	// A trapdoor from a different key must not match either.
	otherSK := NewSearchKey(NewBlockKey(r))
	if hits := idx.Search(otherSK.Trapdoor("secret")); len(hits) != 0 {
		t.Fatalf("foreign trapdoor matched at %v", hits)
	}
	// Malformed trapdoor is rejected outright.
	if hits := idx.Search(Trapdoor{X: []byte{1}, KX: []byte{2}}); hits != nil {
		t.Fatal("malformed trapdoor not rejected")
	}
}

func TestSearchIndexHidesRepeats(t *testing.T) {
	// Identical words at different positions must produce different
	// cells, otherwise the server learns word-frequency structure
	// without any trapdoor.
	r := rand.New(rand.NewSource(10))
	sk := NewSearchKey(NewBlockKey(r))
	idx := sk.BuildIndex([]string{"same", "same"})
	if bytes.Equal(idx.Cells[0], idx.Cells[1]) {
		t.Fatal("repeated word produced identical cells")
	}
	if idx.SizeBytes() != 2*searchCellWidth {
		t.Fatalf("index size = %d", idx.SizeBytes())
	}
}

func TestSearchDeterministicAcrossRebuilds(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	master := NewBlockKey(r)
	a := NewSearchKey(master).BuildIndex([]string{"x", "y"})
	b := NewSearchKey(master).BuildIndex([]string{"x", "y"})
	for i := range a.Cells {
		if !bytes.Equal(a.Cells[i], b.Cells[i]) {
			t.Fatal("index must be deterministic under the same key")
		}
	}
}

func TestKeyRingCipherCache(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	kr := NewKeyRing()
	obj := NewSigner(r).GUID()
	if _, ok := kr.Cipher(obj); ok {
		t.Fatal("cipher without a grant")
	}
	key := NewBlockKey(r)
	kr.Grant(obj, key)
	bc1, ok := kr.Cipher(obj)
	if !ok {
		t.Fatal("no cipher after grant")
	}
	if bc2, _ := kr.Cipher(obj); bc2 != bc1 {
		t.Fatal("cipher not cached across lookups")
	}
	plain := []byte("cache me if you can")
	want := NewBlockCipher(key).EncryptBlock(7, plain)
	if got := bc1.EncryptBlock(7, plain); !bytes.Equal(got, want) {
		t.Fatal("cached cipher diverges from a fresh one")
	}
	// Re-granting a different key must drop the stale cipher.
	key2 := NewBlockKey(r)
	kr.Grant(obj, key2)
	bc3, _ := kr.Cipher(obj)
	if bc3 == bc1 {
		t.Fatal("re-grant kept the old cipher")
	}
	if got := bc3.EncryptBlock(7, plain); bytes.Equal(got, want) {
		t.Fatal("re-granted cipher still encrypts under the old key")
	}
	kr.Revoke(obj)
	if _, ok := kr.Cipher(obj); ok {
		t.Fatal("cipher survived revocation")
	}
}
