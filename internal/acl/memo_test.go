package acl

import (
	"bytes"
	"math/rand"
	"testing"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
)

// certified returns a fresh owner, its object and a memo-carrying
// certificate for it.
func certified(seed int64) (*crypt.Signer, guid.GUID, *Certificate) {
	owner := crypt.NewSigner(rand.New(rand.NewSource(seed)))
	obj := guid.FromOwnerAndName(owner.Public(), "doc")
	return owner, obj, Certify(owner, obj, &ACL{}, 1)
}

// TestCertMemoAnswersAddCert: the certificate Certify returns is
// installed on the strength of its memo, counted as such.
func TestCertMemoAnswersAddCert(t *testing.T) {
	_, _, cert := certified(31)
	s := NewStore()
	if err := s.AddCert(cert, "doc"); err != nil {
		t.Fatal(err)
	}
	if hits, full := s.CertVerifies(); hits != 1 || full != 0 {
		t.Fatalf("fresh certificate: %d memo hits, %d full verifies", hits, full)
	}
	// The memo vouches for the signature, never for ownership.
	if err := s.AddCert(cert, "other-name"); err == nil {
		t.Fatal("memoised certificate installed under a name it does not own")
	}
}

// TestCertTamperAfterCertifyDefeatsMemo: one flipped bit in any field
// the signature covers, in the key, or in the signature itself, and
// the memo no longer applies; the full check then rejects it.
func TestCertTamperAfterCertifyDefeatsMemo(t *testing.T) {
	tampers := map[string]func(c *Certificate){
		"Sig":      func(c *Certificate) { c.Sig[17] ^= 0x04 },
		"ACLGuid":  func(c *Certificate) { c.ACLGuid[3] ^= 0x01 },
		"Serial":   func(c *Certificate) { c.Serial ^= 1 << 9 },
		"OwnerPub": func(c *Certificate) { c.OwnerPub = bytes.Clone(c.OwnerPub); c.OwnerPub[31] ^= 0x80 },
	}
	for field, tamper := range tampers {
		_, _, cert := certified(32)
		tamper(cert)
		s := NewStore()
		if err := s.AddCert(cert, "doc"); err == nil {
			t.Fatalf("certificate with a flipped bit in %s installed", field)
		}
		if hits, _ := s.CertVerifies(); hits != 0 {
			t.Fatalf("%s: the memo answered for a tampered certificate", field)
		}
		if _, ok := s.certs[cert.Object]; ok {
			t.Fatalf("%s: rejected certificate left a binding behind", field)
		}
	}
}

// TestLiteralCertificateTakesFullPath: a certificate that did not come
// from Certify has no memo; a valid one is accepted by Ed25519, and is
// memoised from then on.
func TestLiteralCertificateTakesFullPath(t *testing.T) {
	_, _, minted := certified(33)
	literal := &Certificate{
		Object: minted.Object, ACLGuid: minted.ACLGuid, Serial: minted.Serial,
		OwnerPub: minted.OwnerPub, Sig: minted.Sig,
	}
	s := NewStore()
	if err := s.AddCert(literal, "doc"); err != nil {
		t.Fatalf("valid literal certificate rejected: %v", err)
	}
	if hits, full := s.CertVerifies(); hits != 0 || full != 1 {
		t.Fatalf("literal certificate: %d memo hits, %d full verifies", hits, full)
	}
	if ok, memoHit := literal.verify("doc"); !ok || !memoHit {
		t.Fatal("a successful full verification was not memoised")
	}
}

// TestFailedCertVerificationNotMemoised: a rejection leaves no memo —
// the same bad certificate is fully checked, and rejected, every time,
// and a later valid state is verified on its own merits.
func TestFailedCertVerificationNotMemoised(t *testing.T) {
	_, _, minted := certified(34)
	bad := &Certificate{
		Object: minted.Object, ACLGuid: minted.ACLGuid, Serial: minted.Serial + 1,
		OwnerPub: minted.OwnerPub, Sig: minted.Sig,
	}
	for i := 0; i < 2; i++ {
		if ok, memoHit := bad.verify("doc"); ok || memoHit || bad.memo != (crypt.SigMemo{}) {
			t.Fatalf("round %d: bad certificate accepted or memoised", i)
		}
	}
	bad.Serial = minted.Serial
	if ok, memoHit := bad.verify("doc"); !ok || memoHit {
		t.Fatalf("repaired certificate: ok=%v memoHit=%v, want a full, successful check", ok, memoHit)
	}
}

// TestGroupCompilesToACL: a working group (§4.2) is a client-side set
// of keys that compiles to an ACL in a deterministic order; dropping a
// member and re-certifying with a higher serial revokes them.
func TestGroupCompilesToACL(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	owner, alice, bob := crypt.NewSigner(r), crypt.NewSigner(r), crypt.NewSigner(r)
	obj := guid.FromOwnerAndName(owner.Public(), "minutes")

	editors := NewGroup("editors")
	editors.Add(alice.Public())
	editors.Add(bob.Public())
	editors.Add(bob.Public()) // duplicate
	ms := editors.Members()
	if len(ms) != 2 || bytes.Compare(ms[0], ms[1]) >= 0 {
		t.Fatalf("group of two has %d members, or they are not in key order", len(ms))
	}
	again := NewGroup("editors")
	again.Add(bob.Public())
	again.Add(alice.Public())
	if editors.ToACL(PrivWrite).GUID() != again.ToACL(PrivWrite).GUID() {
		t.Fatal("the same members added in another order compile to another ACL")
	}

	s := NewStore()
	a1 := editors.ToACL(PrivWrite)
	s.AddACL(a1)
	if err := s.AddCert(Certify(owner, obj, a1, 1), "minutes"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckWrite(signedUpdate(t, bob, obj)); err != nil {
		t.Fatalf("group member rejected: %v", err)
	}

	editors.Remove(bob.Public())
	a2 := editors.ToACL(PrivWrite)
	if len(a2.Entries) != 1 || !a2.Grants(alice.Public(), PrivWrite) || a2.Grants(bob.Public(), PrivWrite) {
		t.Fatalf("ACL after removing bob: %d entries", len(a2.Entries))
	}
	s.AddACL(a2)
	if err := s.AddCert(Certify(owner, obj, a2, 2), "minutes"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckWrite(signedUpdate(t, bob, obj)); err != ErrNotAuthorized {
		t.Fatalf("removed member: %v, want ErrNotAuthorized", err)
	}
	if err := s.CheckWrite(signedUpdate(t, alice, obj)); err != nil {
		t.Fatalf("remaining member rejected: %v", err)
	}
}

// TestCertTamperBetweenStartAndJoin: StartCertify snapshots the
// statement, so a field changed while the signature is still being
// computed is rejected by AddCert exactly as a change after Certify
// would be; untouched, the started certificate is installed on its
// memo, and every signature started is joined.
func TestCertTamperBetweenStartAndJoin(t *testing.T) {
	owner := crypt.NewSigner(rand.New(rand.NewSource(36)))
	obj := guid.FromOwnerAndName(owner.Public(), "doc")
	tampers := map[string]func(c *Certificate){
		"Object":   func(c *Certificate) { c.Object[5] ^= 0x02 },
		"ACLGuid":  func(c *Certificate) { c.ACLGuid[3] ^= 0x01 },
		"Serial":   func(c *Certificate) { c.Serial ^= 1 << 9 },
		"OwnerPub": func(c *Certificate) { c.OwnerPub = bytes.Clone(c.OwnerPub); c.OwnerPub[31] ^= 0x80 },
	}
	before := StartStats()
	for field, tamper := range tampers {
		cert := StartCertify(owner, obj, &ACL{}, 1)
		tamper(cert)
		s := NewStore()
		if err := s.AddCert(cert, "doc"); err == nil {
			t.Fatalf("%s changed between start and join: certificate installed", field)
		}
		if hits, _ := s.CertVerifies(); hits != 0 {
			t.Fatalf("%s: the memo answered for a tampered certificate", field)
		}
		if len(s.certs) != 0 {
			t.Fatalf("%s: rejected certificate left a binding behind", field)
		}
	}
	cert := StartCertify(owner, obj, &ACL{}, 1)
	s := NewStore()
	if err := s.AddCert(cert, "doc"); err != nil {
		t.Fatalf("untampered started certificate rejected: %v", err)
	}
	if hits, full := s.CertVerifies(); hits != 1 || full != 0 {
		t.Fatalf("started certificate: %d memo hits, %d full verifies", hits, full)
	}
	if !bytes.Equal(cert.Sig, Certify(owner, obj, &ACL{}, 1).Sig) {
		t.Fatal("started and synchronous certificates carry different signatures")
	}
	after := StartStats()
	started := after.Started - before.Started
	joins := (after.Ready + after.Taken + after.Waited) - (before.Ready + before.Taken + before.Waited)
	if started != int64(len(tampers)+1) || joins != started {
		t.Fatalf("%d certificates started, %d joined; want %d of each", started, joins, len(tampers)+1)
	}
}
