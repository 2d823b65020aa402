// Package guid implements OceanStore globally unique identifiers.
//
// Every addressable entity in OceanStore — object, floating replica,
// archival fragment, server, client — is named by a GUID: a
// pseudo-random fixed-length bit string (paper §4.1).  Object GUIDs are
// self-certifying: the secure hash of the owner's public key and a
// human-readable name, so any server can verify ownership without a
// central authority.  Server GUIDs hash the server's public key, and
// fragment GUIDs hash the fragment data, making fragments
// self-verifying.
//
// The paper's prototype uses SHA-1 for its secure hash; we follow it.
package guid

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
)

// Size is the byte length of a GUID (SHA-1 output).
const Size = sha1.Size

// Digits is the number of hex digits (nibbles) in a GUID, used by the
// Plaxton-style routing mesh which resolves one nibble per hop.
const Digits = Size * 2

// GUID is a 160-bit globally unique identifier.
type GUID [Size]byte

// Zero is the all-zero GUID, used as a sentinel "no GUID" value.
var Zero GUID

// FromOwnerAndName derives a self-certifying object GUID from the
// owner's public key and a human-readable name (paper §4.1).
func FromOwnerAndName(ownerPub []byte, name string) GUID {
	h := sha1.New()
	h.Write([]byte("oceanstore:object:"))
	h.Write(ownerPub)
	h.Write([]byte{0})
	h.Write([]byte(name))
	return sum(h)
}

// FromPublicKey derives a server or user GUID from a public key.
func FromPublicKey(pub []byte) GUID {
	h := sha1.New()
	h.Write([]byte("oceanstore:key:"))
	h.Write(pub)
	return sum(h)
}

// FromData derives a content GUID — the secure hash over the data a
// fragment or archival version holds, making it self-verifying.
func FromData(data []byte) GUID {
	h := sha1.New()
	h.Write([]byte("oceanstore:data:"))
	h.Write(data)
	return sum(h)
}

// Parse decodes a GUID from its 40-character hex form.
func Parse(s string) (GUID, error) {
	var g GUID
	if len(s) != Digits {
		return g, errors.New("guid: bad hex length")
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return g, err
	}
	copy(g[:], b)
	return g, nil
}

// Entropy is the randomness source GUID (and key) generation draws
// from.  *math/rand.Rand satisfies it; simulations pass the kernel's
// seeded source so every identifier is reproducible from the run seed.
// Taking an interface instead of *rand.Rand keeps math/rand out of
// this package entirely — there is no global source to leak to (the
// `make vet-rand` lint enforces the same property textually).
type Entropy interface {
	Uint64() uint64
}

// Random returns a uniformly random GUID drawn from r.  Used for node
// IDs in the routing mesh, which the paper assigns randomly.
func Random(r Entropy) GUID {
	var g GUID
	var word [8]byte
	for i := 0; i < Size; i += 8 {
		binary.BigEndian.PutUint64(word[:], r.Uint64())
		copy(g[i:], word[:])
	}
	return g
}

// Salted hashes the GUID with a small salt value, mapping it to one of
// several root nodes (paper §4.3.3, "Achieving Fault Tolerance").
func (g GUID) Salted(salt uint32) GUID {
	var sb [4]byte
	binary.BigEndian.PutUint32(sb[:], salt)
	h := sha1.New()
	h.Write([]byte("oceanstore:salt:"))
	h.Write(g[:])
	h.Write(sb[:])
	return sum(h)
}

// String renders the GUID in hex.
func (g GUID) String() string { return hex.EncodeToString(g[:]) }

// Short renders the first 8 hex digits, for logs and diagrams.
func (g GUID) Short() string { return hex.EncodeToString(g[:4]) }

// Digit returns the i-th hex digit (nibble).  Digit 0 is the LEAST
// significant nibble: the paper's Plaxton variant matches node-IDs to
// GUIDs "starting from the least significant" bits, resolving one digit
// per routing level.
func (g GUID) Digit(i int) byte {
	b := g[Size-1-i/2]
	if i%2 == 0 {
		return b & 0x0f
	}
	return b >> 4
}

// MatchingDigits counts how many low-order hex digits g and o share —
// the routing-level metric for the Plaxton mesh.
func (g GUID) MatchingDigits(o GUID) int {
	n := 0
	for n < Digits && g.Digit(n) == o.Digit(n) {
		n++
	}
	return n
}

// Uint64 folds the top 8 bytes into a uint64, handy for deterministic
// seeding and hashing into Bloom filters.
func (g GUID) Uint64() uint64 { return binary.BigEndian.Uint64(g[:8]) }

// Compare orders GUIDs lexicographically: -1, 0 or 1.
func (g GUID) Compare(o GUID) int {
	for i := 0; i < Size; i++ {
		if g[i] != o[i] {
			if g[i] < o[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// sum reads h's digest into a GUID; summing into the array, not a
// fresh slice, keeps a hash off the heap.
func sum(h hash.Hash) GUID {
	var g GUID
	h.Sum(g[:0])
	return g
}
