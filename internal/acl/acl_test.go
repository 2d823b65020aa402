package acl

import (
	"math/rand"
	"testing"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/update"
)

func TestGrants(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	w, a := crypt.NewSigner(r), crypt.NewSigner(r)
	acl := &ACL{Entries: []Entry{
		{PubKey: w.Public(), Priv: PrivWrite},
		{PubKey: a.Public(), Priv: PrivAdmin},
	}}
	if !acl.Grants(w.Public(), PrivWrite) {
		t.Fatal("writer not granted write")
	}
	if acl.Grants(w.Public(), PrivAdmin) {
		t.Fatal("writer granted admin")
	}
	if !acl.Grants(a.Public(), PrivWrite) {
		t.Fatal("admin not granted write (admin implies write)")
	}
	if acl.Grants(crypt.NewSigner(r).Public(), PrivWrite) {
		t.Fatal("stranger granted write")
	}
}

func TestACLGUIDContentAddressed(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	w := crypt.NewSigner(r)
	a := &ACL{Entries: []Entry{{PubKey: w.Public(), Priv: PrivWrite}}}
	b := &ACL{Entries: []Entry{{PubKey: w.Public(), Priv: PrivWrite}}}
	if a.GUID() != b.GUID() {
		t.Fatal("identical ACLs must share a GUID")
	}
	c := &ACL{Entries: []Entry{{PubKey: w.Public(), Priv: PrivAdmin}}}
	if a.GUID() == c.GUID() {
		t.Fatal("different ACLs share a GUID")
	}
}

func TestCertificateSelfCertifying(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	owner := crypt.NewSigner(r)
	obj := guid.FromOwnerAndName(owner.Public(), "inbox")
	acl := &ACL{}
	cert := Certify(owner, obj, acl, 1)
	if ok, _ := cert.verify("inbox"); !ok {
		t.Fatal("valid certificate rejected")
	}
	// Wrong name: the key does not hash to the object GUID under it.
	if ok, _ := cert.verify("outbox"); ok {
		t.Fatal("certificate verified under wrong name")
	}
	// A non-owner cannot hijack the name: their key hashes elsewhere.
	thief := crypt.NewSigner(r)
	stolen := Certify(thief, obj, acl, 99)
	if ok, _ := stolen.verify("inbox"); ok {
		t.Fatal("non-owner certified someone else's object")
	}
	// Tampered signature.
	cert.Sig[0] ^= 1
	if ok, _ := cert.verify("inbox"); ok {
		t.Fatal("tampered certificate verified")
	}
}

func signedUpdate(t *testing.T, signer *crypt.Signer, obj guid.GUID) *update.Update {
	t.Helper()
	u := update.NewUnconditional(obj, nil)
	u.ClientID = signer.GUID()
	u.Sign(signer)
	return u
}

func TestCheckWrite(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	owner := crypt.NewSigner(r)
	writer := crypt.NewSigner(r)
	stranger := crypt.NewSigner(r)

	obj := guid.FromOwnerAndName(owner.Public(), "shared-doc")
	acl := &ACL{Entries: []Entry{{PubKey: writer.Public(), Priv: PrivWrite}}}
	s := NewStore()
	s.AddACL(acl)
	if err := s.AddCert(Certify(owner, obj, acl, 1), "shared-doc"); err != nil {
		t.Fatal(err)
	}

	if err := s.CheckWrite(signedUpdate(t, writer, obj)); err != nil {
		t.Fatalf("authorised writer rejected: %v", err)
	}
	if err := s.CheckWrite(signedUpdate(t, owner, obj)); err != nil {
		t.Fatalf("owner rejected: %v", err)
	}
	if err := s.CheckWrite(signedUpdate(t, stranger, obj)); err != ErrNotAuthorized {
		t.Fatalf("stranger: %v, want ErrNotAuthorized", err)
	}

	// Bad signature beats everything.
	u := signedUpdate(t, writer, obj)
	u.Seq = 99 // invalidates signature
	if err := s.CheckWrite(u); err != ErrBadSignature {
		t.Fatalf("tampered: %v, want ErrBadSignature", err)
	}

	// Unknown object.
	other := guid.FromData([]byte("unknown"))
	if err := s.CheckWrite(signedUpdate(t, writer, other)); err != ErrNoACL {
		t.Fatalf("no-acl: %v, want ErrNoACL", err)
	}

	// A certificate whose ACL the store never received grants no one
	// but the owner.
	unseen := guid.FromOwnerAndName(owner.Public(), "unseen-acl")
	if err := s.AddCert(Certify(owner, unseen, &ACL{Entries: []Entry{{PubKey: stranger.Public(), Priv: PrivWrite}}}, 1), "unseen-acl"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckWrite(signedUpdate(t, stranger, unseen)); err != ErrNoACL {
		t.Fatalf("certified ACL never added: %v, want ErrNoACL", err)
	}
}

func TestRevocationViaRecertify(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	owner := crypt.NewSigner(r)
	writer := crypt.NewSigner(r)
	obj := guid.FromOwnerAndName(owner.Public(), "doc")

	permissive := &ACL{Entries: []Entry{{PubKey: writer.Public(), Priv: PrivWrite}}}
	empty := &ACL{}
	s := NewStore()
	s.AddACL(permissive)
	s.AddACL(empty)
	if err := s.AddCert(Certify(owner, obj, permissive, 1), "doc"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckWrite(signedUpdate(t, writer, obj)); err != nil {
		t.Fatal("writer should be authorised before revocation")
	}
	// Owner revokes by certifying a new ACL with a higher serial.
	if err := s.AddCert(Certify(owner, obj, empty, 2), "doc"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckWrite(signedUpdate(t, writer, obj)); err != ErrNotAuthorized {
		t.Fatalf("revoked writer: %v, want ErrNotAuthorized", err)
	}
	// Replaying the old permissive certificate must fail (stale serial).
	if err := s.AddCert(Certify(owner, obj, permissive, 1), "doc"); err == nil {
		t.Fatal("stale certificate replay accepted")
	}
	// The installed binding is the newest one.
	if cur, ok := s.certs[obj]; !ok || cur.ACLGuid != empty.GUID() {
		t.Fatal("current ACL not the newest binding")
	}
}

func TestAddCertRejectsForgery(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	owner := crypt.NewSigner(r)
	thief := crypt.NewSigner(r)
	obj := guid.FromOwnerAndName(owner.Public(), "doc")
	s := NewStore()
	a := &ACL{Entries: []Entry{{PubKey: thief.Public(), Priv: PrivAdmin}}}
	s.AddACL(a)
	if err := s.AddCert(Certify(thief, obj, a, 5), "doc"); err == nil {
		t.Fatal("forged certificate installed")
	}
}
