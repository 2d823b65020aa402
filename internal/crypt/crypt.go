// Package crypt supplies the cryptographic building blocks OceanStore's
// untrusted-infrastructure design rests on (paper §1.2, §4.2, §4.4.2):
//
//   - a position-dependent block cipher, so servers holding only
//     ciphertext can still evaluate compare-block predicates and apply
//     replace-block/append actions (§4.4.2);
//   - searchable encryption in the style of Song-Wagner-Perrig, so a
//     server can test whether an encrypted document contains a word
//     without learning the word or being able to start its own
//     searches (§4.4.2, [47]);
//   - Ed25519 signing, used for client updates and owner certificates
//     (§4.2), and a key ring implementing reader restriction by key
//     distribution.
//
// Only clients hold cleartext or keys; everything exported for servers
// operates on ciphertext.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"oceanstore/internal/guid"
)

// BlockKey is a symmetric per-object key for block encryption.
type BlockKey [32]byte

// NewBlockKey derives a fresh random key from r.  Simulation runs pass
// a seeded source (the kernel's *rand.Rand satisfies guid.Entropy) so
// experiments stay reproducible; there is no global-rand fallback.
func NewBlockKey(r guid.Entropy) BlockKey {
	var k BlockKey
	for i := 0; i < len(k); i += 8 {
		binary.BigEndian.PutUint64(k[i:], r.Uint64())
	}
	return k
}

// BlockCipher encrypts object blocks under a position-dependent scheme:
// the keystream for a block is derived from (key, physical block
// position).  The cipher is deterministic per (key, position,
// plaintext), which is exactly what the paper's compare-block predicate
// needs — a client can hash the expected ciphertext and a server can
// compare hashes without any key (§4.4.2).
//
// The AES block cipher is expanded once at construction and the CTR
// keystream is applied with in-struct scratch: key schedules and
// cipher.NewCTR wrappers were a top allocator in soak profiles, paid
// again for every block of every write.  The scratch makes a
// BlockCipher single-goroutine, which every caller already is (each
// View/Editor owns its cipher inside one simulator).
type BlockCipher struct {
	key     BlockKey
	block   cipher.Block
	ctr, ks [aes.BlockSize]byte // keystream scratch; see note above
}

// NewBlockCipher wraps a key, expanding the AES key schedule once.
func NewBlockCipher(key BlockKey) *BlockCipher {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("crypt: aes: %v", err)) // 32-byte key; cannot fail
	}
	return &BlockCipher{key: key, block: block}
}

// xorKeyStream applies the position-bound AES-CTR keystream —
// counter blocks E(iv), E(iv+1), ... with the 16-byte counter
// incremented big-endian, exactly cipher.NewCTR's sequence.
func (c *BlockCipher) xorKeyStream(pos uint64, dst, src []byte) {
	copy(c.ctr[:8], "osblkpos")
	binary.BigEndian.PutUint64(c.ctr[8:], pos)
	for i := 0; i < len(src); i += aes.BlockSize {
		c.block.Encrypt(c.ks[:], c.ctr[:])
		n := len(src) - i
		if n > aes.BlockSize {
			n = aes.BlockSize
		}
		for j := 0; j < n; j++ {
			dst[i+j] = src[i+j] ^ c.ks[j]
		}
		for k := aes.BlockSize - 1; k >= 0; k-- {
			c.ctr[k]++
			if c.ctr[k] != 0 {
				break
			}
		}
	}
}

// EncryptBlock encrypts plain as the block at physical position pos.
func (c *BlockCipher) EncryptBlock(pos uint64, plain []byte) []byte {
	out := make([]byte, len(plain))
	c.xorKeyStream(pos, out, plain)
	return out
}

// DecryptBlock inverts EncryptBlock.
func (c *BlockCipher) DecryptBlock(pos uint64, ct []byte) []byte {
	return c.EncryptBlock(pos, ct) // CTR is an involution
}

// BlockDigest hashes a ciphertext block.  Both the client (over the
// expected ciphertext) and the server (over the stored ciphertext) can
// compute it, enabling the compare-block predicate on ciphertext.
func BlockDigest(ct []byte) guid.GUID {
	h := sha1.Sum(ct)
	var g guid.GUID
	copy(g[:], h[:])
	return g
}

// ---- Signing ----

// Signer holds an Ed25519 key pair and signs client updates and owner
// certificates.
//
// The pair is derived from the seed when Public, GUID or Sign first
// needs it.  A primary tier makes 3f+1 signers per object whose only
// use is a commit certificate somebody chooses to inspect, so most
// signers a run creates never sign; what must happen at construction
// is the draw from the entropy source, because every later draw from
// the same source depends on it.  The derived pair is a pure function
// of the seed (RFC 8032 §5.1.5), so when it is derived is not
// observable.  A Signer is safe for concurrent use.
type Signer struct {
	seed [ed25519.SeedSize]byte
	once sync.Once
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// Signers made and key pairs derived, process-wide.  Diagnostics for
// the stderr `crypto:` rail only: a process may hold several
// simulations, so these belong in no per-run dump.
var signersCreated, keysDerived atomic.Int64

// SignerStats reports how many signers NewSigner has made and how many
// of them have had to derive their key pair.
func SignerStats() (created, derived int64) {
	return signersCreated.Load(), keysDerived.Load()
}

// NewSigner creates a signer whose key pair is seeded from the source
// r: exactly four Uint64 draws, here.
func NewSigner(r guid.Entropy) *Signer {
	s := new(Signer)
	for i := 0; i < len(s.seed); i += 8 {
		binary.BigEndian.PutUint64(s.seed[i:], r.Uint64())
	}
	signersCreated.Add(1)
	return s
}

func (s *Signer) derive() {
	s.once.Do(func() {
		s.priv = ed25519.NewKeyFromSeed(s.seed[:])
		s.pub = s.priv.Public().(ed25519.PublicKey)
		keysDerived.Add(1)
	})
}

// Public returns the raw public key bytes.
func (s *Signer) Public() []byte {
	s.derive()
	return []byte(s.pub)
}

// GUID returns the signer's identity GUID — the secure hash of its
// public key (§4.1).
func (s *Signer) GUID() guid.GUID { return guid.FromPublicKey(s.Public()) }

// Sign signs msg.
func (s *Signer) Sign(msg []byte) []byte {
	s.derive()
	return ed25519.Sign(s.priv, msg)
}

// VerifySig checks sig over msg under the raw public key pub.
func VerifySig(pub, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), msg, sig)
}

// SignatureSize is the wire size of a signature, for byte accounting.
const SignatureSize = ed25519.SignatureSize

// SigMemo remembers one (statement, key, signature) triple known to
// verify, by digest, so that re-checking the same triple — every member
// of a 3f+1 tier verifies the same update, a pool re-checks the
// certificate it has just issued — costs three hashes instead of an
// Ed25519 scalar multiplication.
//
// It cannot change a verdict.  Verify digests the triple it is handed,
// as it then stands, and skips the curve arithmetic only on an exact
// match with a triple that was either produced by signing (Begin/End)
// or has passed the full check; a tamper with the statement, the key or
// the signature changes a digest and takes the full check.  Success is
// remembered, failure never.  The zero value remembers nothing.
type SigMemo struct {
	msg, pub, sig guid.GUID
	ok            bool
}

// Begin records the key and statement a signature is about to be made
// over; until End the memo vouches for nothing.
func (m *SigMemo) Begin(pub, msg []byte) {
	m.msg, m.pub, m.ok = guid.FromData(msg), guid.FromData(pub), false
}

// End completes Begin with the signature produced over its statement,
// which verifies by construction.
func (m *SigMemo) End(sig []byte) {
	m.sig, m.ok = guid.FromData(sig), true
}

// Verify is VerifySig through the memo; hit reports that the memo
// answered and Ed25519 did not run.
func (m *SigMemo) Verify(pub, msg, sig []byte) (ok, hit bool) {
	now := SigMemo{guid.FromData(msg), guid.FromData(pub), guid.FromData(sig), true}
	if *m == now {
		return true, true
	}
	if !VerifySig(pub, msg, sig) {
		return false, false
	}
	*m = now
	return true, false
}

// ---- Reader restriction: key ring ----

// KeyRing implements reader restriction (§4.2): data is encrypted and
// the key distributed to readers.  Revocation re-keys the object; a
// recently-revoked reader may still read stale cached ciphertext, which
// the paper accepts as unavoidable.
//
// The ring also memoises one BlockCipher per object so a client's
// reads and writes do not re-expand the AES key schedule every
// operation (a top allocator at soak rates).  The cache follows the
// keys: Grant (re-key) and Revoke both drop the cached cipher.
type KeyRing struct {
	keys    map[guid.GUID]BlockKey
	ciphers map[guid.GUID]*BlockCipher
}

// NewKeyRing creates an empty ring.
func NewKeyRing() *KeyRing {
	return &KeyRing{keys: make(map[guid.GUID]BlockKey), ciphers: make(map[guid.GUID]*BlockCipher)}
}

// Grant gives this ring the read key for an object.
func (kr *KeyRing) Grant(obj guid.GUID, key BlockKey) {
	kr.keys[obj] = key
	delete(kr.ciphers, obj) // re-key invalidates the cached cipher
}

// Revoke removes the key for an object from this ring.
func (kr *KeyRing) Revoke(obj guid.GUID) {
	delete(kr.keys, obj)
	delete(kr.ciphers, obj)
}

// Cipher returns the ring's cached BlockCipher for an object, building
// it on first use.  The cipher inherits BlockCipher's single-goroutine
// rule, which holds because a KeyRing belongs to one client.
func (kr *KeyRing) Cipher(obj guid.GUID) (*BlockCipher, bool) {
	if bc, ok := kr.ciphers[obj]; ok {
		return bc, true
	}
	key, ok := kr.keys[obj]
	if !ok {
		return nil, false
	}
	bc := NewBlockCipher(key)
	kr.ciphers[obj] = bc
	return bc, true
}

// Key looks up the read key for an object.
func (kr *KeyRing) Key(obj guid.GUID) (BlockKey, bool) {
	k, ok := kr.keys[obj]
	return k, ok
}
