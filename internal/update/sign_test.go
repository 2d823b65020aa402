package update

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
)

// seededUpdate builds the i-th of a family of distinct unsigned
// updates: a random-length append, one predicate, its own object.
func seededUpdate(r *rand.Rand, client guid.GUID, i int) *Update {
	k := testKey(int64(i))
	base := object.NewObject([]byte("AABB"), 2, k)
	ed, _ := object.NewEditor(base, k)
	payload := make([]byte, 1+r.Intn(64))
	r.Read(payload)
	u := &Update{
		Object: guid.Random(r),
		Guards: []Guard{{
			Preds:   []Predicate{{Kind: PredCompareVersion, Cmp: CmpGE, Version: uint64(r.Intn(9))}},
			Actions: BlockOps(ed.Append(payload)),
		}},
		ClientID:  client,
		Seq:       uint64(i + 1),
		Timestamp: time.Duration(r.Int63n(int64(time.Hour))),
	}
	return u
}

// TestStartSignMatchesSign: over 200 seeded updates the started
// signature, once joined, is byte for byte the one Sign produces, with
// the same memo; and WireSize reads the same before the join as after.
func TestStartSignMatchesSign(t *testing.T) {
	signer := crypt.NewSigner(rand.New(rand.NewSource(21)))
	ra, rb := rand.New(rand.NewSource(22)), rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		eager, async := seededUpdate(ra, signer.GUID(), i), seededUpdate(rb, signer.GUID(), i)
		eager.Sign(signer)
		if eager.Sig == nil || eager.signing != nil {
			t.Fatalf("update %d: Sign returned without a signature", i)
		}
		async.StartSign(signer)
		if async.Sig != nil {
			t.Fatalf("update %d: Sig set before the join", i)
		}
		if got, want := async.WireSize(), eager.WireSize(); got != want {
			t.Fatalf("update %d: WireSize %d while pending, %d signed", i, got, want)
		}
		if async.signing == nil {
			t.Fatalf("update %d: WireSize joined the signature", i)
		}
		if !async.VerifySig() {
			t.Fatalf("update %d: started signature rejected", i)
		}
		if !bytes.Equal(async.Sig, eager.Sig) {
			t.Fatalf("update %d: started signature differs from Sign's", i)
		}
		if async.memo != eager.memo || async.memo == (crypt.SigMemo{}) {
			t.Fatalf("update %d: memo differs between the two paths, or is empty", i)
		}
		if got, want := async.WireSize(), eager.WireSize(); got != want {
			t.Fatalf("update %d: WireSize %d after the join, want %d", i, got, want)
		}
	}
}

// TestTamperBetweenStartAndJoin: the statement is snapshotted at
// start, so a field changed while the signature is still being computed
// is caught exactly as a change after Sign would be.
func TestTamperBetweenStartAndJoin(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	signer, other := crypt.NewSigner(r), crypt.NewSigner(r)
	tampers := map[string]func(u *Update){
		"guard":  func(u *Update) { u.Guards[0].Preds[0].Version++ },
		"action": func(u *Update) { u.Guards[0].Actions[0].Op.Blocks[0].CT[0] ^= 1 },
		"pubkey": func(u *Update) { u.PubKey = other.Public() },
		"seq":    func(u *Update) { u.Seq++ },
	}
	for name, tamper := range tampers {
		u := seededUpdate(r, signer.GUID(), 0)
		u.StartSign(signer)
		tamper(u)
		if u.VerifySig() {
			t.Fatalf("%s changed between start and join: signature verified", name)
		}
		if u.VerifySig() {
			t.Fatalf("%s: the failed verification was memoised", name)
		}
	}
	// Untouched, the same update verifies.
	u := seededUpdate(r, signer.GUID(), 0)
	u.StartSign(signer)
	if !u.VerifySig() {
		t.Fatal("untampered started signature rejected")
	}
}

// TestVerifySigWithoutMemoRunsFullCheck: a copy that carries the
// signature but not the memo (what benchmark/direct.go times) is
// verified by Ed25519, and only then memoised.
func TestVerifySigWithoutMemoRunsFullCheck(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	signer := crypt.NewSigner(r)
	u := seededUpdate(r, signer.GUID(), 0)
	u.Sign(signer)
	cold := func() *Update {
		return &Update{
			Object: u.Object, Guards: u.Guards, ClientID: u.ClientID, Seq: u.Seq,
			Timestamp: u.Timestamp, PubKey: u.PubKey, Sig: append([]byte(nil), u.Sig...),
		}
	}
	good := cold()
	if good.memo != (crypt.SigMemo{}) {
		t.Fatal("a struct-literal copy carries a memo")
	}
	if !good.VerifySig() || good.memo != u.memo {
		t.Fatal("valid memo-less copy rejected, or its success not memoised")
	}
	bad := cold()
	bad.Sig[5] ^= 1
	if bad.VerifySig() || bad.memo != (crypt.SigMemo{}) {
		t.Fatal("memo-less copy with a corrupt signature accepted or memoised")
	}
}
