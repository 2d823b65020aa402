// Package acl implements OceanStore's access control (paper §4.2).
//
// Reader restriction is cryptographic — data is encrypted and keys are
// distributed to readers (crypt.KeyRing); revocation re-keys and
// re-encrypts.  This package implements the other half, *writer
// restriction*: all writes are signed, and well-behaved servers verify
// them against an access control list.  The owner of an object chooses
// its ACL by issuing a signed certificate meaning "Owner says use ACL x
// for object foo".  ACL entries grant a privilege to a *signing key* —
// deliberately not to an explicit identity — and are publicly readable
// so any server can check whether a write is allowed.
package acl

import (
	"encoding/binary"
	"errors"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/update"
)

// Privilege is the level a key is granted.
type Privilege byte

// Privileges.  Admin may write and also re-certify the ACL.
const (
	PrivWrite Privilege = iota + 1
	PrivAdmin
)

// Entry grants a privilege to the holder of a signing key.
type Entry struct {
	PubKey []byte
	Priv   Privilege
}

// ACL is an ordered, publicly readable list of grants.  ACLs are
// built by appending entries and are immutable thereafter; rewriting
// an existing entry in place after GUID has been called is not
// supported (issue a new ACL and re-certify instead, which is the
// revocation model anyway).
type ACL struct {
	Entries []Entry

	// guidMemo caches the content address; guidLen is the entry count
	// it was computed over, so appends invalidate it.
	guidMemo guid.GUID
	guidLen  int
	guidSet  bool
}

// GUID content-addresses the ACL, so certificates can name it.  The
// digest is memoised: every server certifying or registering the same
// shared ACL would otherwise re-encode it per object.
func (a *ACL) GUID() guid.GUID {
	if a.guidSet && a.guidLen == len(a.Entries) {
		return a.guidMemo
	}
	a.guidMemo = guid.FromData(a.encode())
	a.guidLen = len(a.Entries)
	a.guidSet = true
	return a.guidMemo
}

func (a *ACL) encode() []byte {
	buf := []byte{byte(len(a.Entries))}
	for _, e := range a.Entries {
		buf = append(buf, byte(e.Priv), byte(len(e.PubKey)))
		buf = append(buf, e.PubKey...)
	}
	return buf
}

// Grants reports whether pub holds at least priv.
func (a *ACL) Grants(pub []byte, priv Privilege) bool {
	for _, e := range a.Entries {
		if e.Priv >= priv && string(e.PubKey) == string(pub) {
			return true
		}
	}
	return false
}

// Certificate is the owner's signed statement binding an object to an
// ACL: "Owner says use ACL x for object foo."
type Certificate struct {
	Object   guid.GUID // the object's self-certifying GUID
	ACLGuid  guid.GUID // content address of the ACL
	Serial   uint64    // monotonically increasing; newest serial wins
	OwnerPub []byte
	Sig      []byte

	// memo remembers the statement, key and signature last known to
	// verify.  A certificate written as a struct literal has none.
	memo crypt.SigMemo
}

func (c *Certificate) signedBytes() []byte {
	buf := make([]byte, 0, 2*guid.Size+8)
	buf = append(buf, c.Object[:]...)
	buf = append(buf, c.ACLGuid[:]...)
	buf = binary.BigEndian.AppendUint64(buf, c.Serial)
	return buf
}

// Certify issues a certificate binding obj (owned by the signer under
// name) to the given ACL.  Like update.Sign it seeds the verification
// memo: the signature it has just produced verifies by construction.
func Certify(owner *crypt.Signer, obj guid.GUID, a *ACL, serial uint64) *Certificate {
	c := &Certificate{Object: obj, ACLGuid: a.GUID(), Serial: serial, OwnerPub: owner.Public()}
	msg := c.signedBytes()
	c.memo.Begin(c.OwnerPub, msg)
	c.Sig = owner.Sign(msg)
	c.memo.End(c.Sig)
	return c
}

// VerifyCert checks that the certificate is (1) correctly signed and
// (2) issued by the true owner of the object: because object GUIDs are
// self-certifying — the secure hash of the owner's key and the object's
// human-readable name (§4.1) — any server can verify ownership with no
// authority, given the name the object was created under.
func VerifyCert(c *Certificate, name string) bool {
	ok, _ := c.verify(name)
	return ok
}

// verify is VerifyCert, also reporting whether the certificate's memo
// stood in for ed25519.Verify.  Ownership is outside the memo and is
// checked every time.
func (c *Certificate) verify(name string) (ok, memoHit bool) {
	if guid.FromOwnerAndName(c.OwnerPub, name) != c.Object {
		return false, false
	}
	return c.memo.Verify(c.OwnerPub, c.signedBytes(), c.Sig)
}

// Errors returned by Store.CheckWrite.
var (
	ErrBadSignature  = errors.New("acl: update signature invalid")
	ErrNotAuthorized = errors.New("acl: signing key not granted write privilege")
	ErrNoACL         = errors.New("acl: object has no certified ACL")
)

// Store is a server's view of certified ACLs: the publicly readable
// mapping from object to its current ACL.
type Store struct {
	acls  map[guid.GUID]*ACL         // by ACL GUID (content address)
	certs map[guid.GUID]*Certificate // by object GUID; newest serial wins
	names map[guid.GUID]string       // object GUID -> creation name

	// AddCert calls the certificate's memo answered, and the rest,
	// which took the full check.
	certMemoHits, certFullVerifies int
}

// NewStore creates an empty ACL store.
func NewStore() *Store {
	return &Store{
		acls:  make(map[guid.GUID]*ACL),
		certs: make(map[guid.GUID]*Certificate),
		names: make(map[guid.GUID]string),
	}
}

// AddACL registers ACL contents under their content address.
func (s *Store) AddACL(a *ACL) { s.acls[a.GUID()] = a }

// AddCert installs a certificate after verification.  A certificate
// with a stale serial is ignored, so revoked writers cannot replay an
// old, more permissive ACL binding.
func (s *Store) AddCert(c *Certificate, name string) error {
	ok, memoHit := c.verify(name)
	if memoHit {
		s.certMemoHits++
	} else {
		s.certFullVerifies++
	}
	if !ok {
		return errors.New("acl: certificate verification failed")
	}
	if old, ok := s.certs[c.Object]; ok && old.Serial >= c.Serial {
		return errors.New("acl: stale certificate serial")
	}
	s.certs[c.Object] = c
	s.names[c.Object] = name
	return nil
}

// CertVerifies reports how AddCert's checks were settled: by the
// certificate's memo, or by the full check (rejections included).
func (s *Store) CertVerifies() (memoHits, full int) {
	return s.certMemoHits, s.certFullVerifies
}

// CurrentACL returns the certified ACL for an object.
func (s *Store) CurrentACL(obj guid.GUID) (*ACL, bool) {
	c, ok := s.certs[obj]
	if !ok {
		return nil, false
	}
	a, ok := s.acls[c.ACLGuid]
	return a, ok
}

// CheckWrite is the well-behaved server's gate (§4.2): verify the
// update's signature, then check that the signing key — not an identity
// — is granted write privilege by the object's certified ACL.  The
// object's owner is always authorised.
func (s *Store) CheckWrite(u *update.Update) error {
	if !u.VerifySig() {
		return ErrBadSignature
	}
	cert, ok := s.certs[u.Object]
	if !ok {
		return ErrNoACL
	}
	// The owner's key is implicitly an admin.
	if string(cert.OwnerPub) == string(u.PubKey) {
		return nil
	}
	a, ok := s.acls[cert.ACLGuid]
	if !ok {
		return ErrNoACL
	}
	if !a.Grants(u.PubKey, PrivWrite) {
		return ErrNotAuthorized
	}
	return nil
}
