// Package update implements OceanStore's conflict-resolution update
// model (paper §4.4.1).
//
// An update is a list of guards, each a conjunction of predicates with
// an associated action list.  To apply an update against an object, a
// replica evaluates the guards in order; the actions of the earliest
// guard whose predicates all hold are applied atomically and the update
// *commits*; if no guard fires, nothing is applied and the update
// *aborts*.  The update is logged either way.
//
// Because replicas are untrusted and hold only ciphertext, the
// predicate set is restricted to what can be computed without keys
// (§4.4.3): compare-version and compare-size run over unencrypted
// metadata; compare-block hashes a ciphertext block; search tests an
// encrypted word index with a client-issued trapdoor.  Actions are the
// ciphertext block operations of §4.4.2 plus replacement of the word
// index.
//
// The model subsumes the paper's examples: Bayou-style merges, Coda
// directory resolution, Lotus-Notes branching (via abort callbacks),
// and ACID transactions — one guard whose predicates check the read set
// and whose actions apply the write set.
package update

import (
	"encoding/binary"
	"fmt"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/par"
)

// PredicateKind enumerates the server-computable predicates of §4.4.3.
type PredicateKind byte

// Predicate kinds.
const (
	PredAlways PredicateKind = iota + 1
	PredCompareVersion
	PredCompareSize
	PredCompareBlock
	PredSearch
)

// Cmp is a comparison operator for the metadata predicates.
type Cmp byte

// Comparison operators.
const (
	CmpEQ Cmp = iota + 1
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func cmpInt(a, b int64, c Cmp) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	default:
		return false
	}
}

// Predicate is one server-side test over an object version.
type Predicate struct {
	Kind PredicateKind

	// CompareVersion / CompareSize.
	Cmp     Cmp
	Version uint64
	Size    int64

	// CompareBlock: the ciphertext at physical position Pos must hash to
	// Digest.  The client computes Digest from the expected ciphertext;
	// no key is needed server-side (§4.4.2).
	Pos    uint32
	Digest guid.GUID

	// Search: the encrypted word index must (or must not, per WantMatch)
	// contain a position matching Trapdoor.
	Trapdoor  crypt.Trapdoor
	WantMatch bool
}

// Eval evaluates the predicate against a version, using only
// information available to an untrusted, keyless replica.
func (p Predicate) Eval(v *object.Version) bool {
	switch p.Kind {
	case PredAlways:
		return true
	case PredCompareVersion:
		return cmpInt(int64(v.Num), int64(p.Version), p.Cmp)
	case PredCompareSize:
		return cmpInt(v.Size, p.Size, p.Cmp)
	case PredCompareBlock:
		d, err := v.BlockDigest(p.Pos)
		return err == nil && d == p.Digest
	case PredSearch:
		if v.Index == nil {
			return !p.WantMatch
		}
		return (len(v.Index.Search(p.Trapdoor)) > 0) == p.WantMatch
	default:
		return false
	}
}

// wireSize estimates the predicate's encoded size.
func (p Predicate) wireSize() int {
	n := 2 + 8 + 8 + 4 + guid.Size
	n += len(p.Trapdoor.X) + len(p.Trapdoor.KX) + 1
	return n
}

// ActionKind enumerates the server-applicable actions.
type ActionKind byte

// Action kinds.
const (
	ActBlockOp  ActionKind = iota + 1 // apply a ciphertext block op
	ActSetIndex                       // replace the encrypted word index
	ActTruncate                       // reset to an empty top-level (re-encryption path)
)

// Action is one mutation applied when a guard fires.
type Action struct {
	Kind  ActionKind
	Op    object.Op
	Index *crypt.WordIndex
}

// apply mutates v in place.
func (a Action) apply(v *object.Version) error {
	switch a.Kind {
	case ActBlockOp:
		return v.ApplyOp(a.Op)
	case ActSetIndex:
		v.Index = a.Index
		return nil
	case ActTruncate:
		v.Blocks = nil
		v.Top = nil
		v.Size = 0
		v.Index = nil
		return nil
	default:
		return fmt.Errorf("update: unknown action kind %d", a.Kind)
	}
}

// wireSize estimates the action's encoded size.
func (a Action) wireSize() int {
	n := 1 + a.Op.WireSize()
	if a.Index != nil {
		n += a.Index.SizeBytes()
	}
	return n
}

// Guard pairs a predicate conjunction with its actions.
type Guard struct {
	Preds   []Predicate
	Actions []Action
}

// holds reports whether every predicate in the guard is true of v.
func (g Guard) holds(v *object.Version) bool {
	for _, p := range g.Preds {
		if !p.Eval(v) {
			return false
		}
	}
	return true
}

// Update is a signed, client-generated change request (§4.4.1).
//
// The two GUIDs sit together, so neither is padded out to a word and an
// update fits the allocator's 208-byte size class.
type Update struct {
	Object guid.GUID
	// ClientID identifies the author; Seq is a per-client sequence
	// number, so (ClientID, Seq) names the update globally.
	ClientID guid.GUID
	Seq      uint64

	Guards []Guard
	// Timestamp is the client's optimistic timestamp, used by secondary
	// replicas to pick a tentative order and by the primary tier to
	// guide the final order (§4.4.3).
	Timestamp time.Duration

	// PubKey and Sig authenticate the update for writer restriction
	// (§4.2).  Well-behaved servers drop updates whose signature fails
	// or whose key the object's ACL does not authorise.
	PubKey []byte
	Sig    []byte

	// memo remembers the last statement, key and signature known to
	// verify (see VerifySig).
	memo crypt.SigMemo
	// signing is the signature StartSign set going and nothing has
	// needed yet; resolve joins it into Sig and the memo.
	signing *par.Task[[]byte]
	// logged is the ID record the log entries of this update share.
	logged *UpdateID
}

// ID names the update globally.
func (u *Update) ID() UpdateID { return UpdateID{Client: u.ClientID, Seq: u.Seq} }

// logID returns the update's ID record, made when it is first logged:
// one record per update, whatever number of replicas log it, so an
// entry holds a pointer and the record outlives the update's payload.
func (u *Update) logID() *UpdateID {
	if u.logged == nil {
		id := u.ID()
		u.logged = &id
	}
	return u.logged
}

// UpdateID is the global name of an update.
type UpdateID struct {
	Client guid.GUID
	Seq    uint64
}

// signedBytes produces the canonical byte string covered by the
// signature: everything except the signature itself.  The encoding is
// not a full codec — simulation passes updates by reference — but it is
// deterministic and collision-resistant via the content digests.
func (u *Update) signedBytes() []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, u.Object[:]...)
	buf = append(buf, u.ClientID[:]...)
	buf = binary.BigEndian.AppendUint64(buf, u.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(u.Timestamp))
	for _, g := range u.Guards {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.Preds)))
		for _, p := range g.Preds {
			buf = append(buf, byte(p.Kind), byte(p.Cmp))
			buf = binary.BigEndian.AppendUint64(buf, p.Version)
			buf = binary.BigEndian.AppendUint64(buf, uint64(p.Size))
			buf = binary.BigEndian.AppendUint32(buf, p.Pos)
			buf = append(buf, p.Digest[:]...)
			buf = append(buf, p.Trapdoor.X...)
			buf = append(buf, p.Trapdoor.KX...)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.Actions)))
		for _, a := range g.Actions {
			buf = append(buf, byte(a.Kind), byte(a.Op.Kind))
			buf = binary.BigEndian.AppendUint32(buf, a.Op.Pos)
			for _, b := range a.Op.Blocks {
				d := b.Digest()
				buf = append(buf, d[:]...)
			}
			if a.Index != nil {
				for _, c := range a.Index.Cells {
					buf = append(buf, c...)
				}
			}
		}
	}
	return buf
}

// Sign signs the update with the client's key and records the key; on
// return Sig is set.  The verification memo is seeded here: a freshly
// produced signature verifies by construction, so the first
// server-side VerifySig costs three hashes.  Any post-signing tamper
// changes a digest and falls back to the full ed25519 check.
func (u *Update) Sign(s *crypt.Signer) {
	u.endSign(s.Sign(u.beginSign(s)))
}

// StartSign is Sign with the Ed25519 computed by par's helper instead
// of the caller: the statement and key are snapshotted and digested
// here, and whoever first needs the signature (VerifySig) joins.  Sig
// stays nil until then; WireSize already counts it.
//
// Nothing observable depends on when the join happens: the signature
// is a pure function of (key, statement) — Ed25519 is deterministic,
// RFC 8032 §5.1.6 — and the statement signed is the one snapshotted
// here.  A field changed between start and join therefore gets no
// cover from the memo: VerifySig digests the statement as it then
// stands, misses, and the full check fails against a signature over
// the old one, exactly as it would had Sign run to completion first.
func (u *Update) StartSign(s *crypt.Signer) {
	msg := u.beginSign(s)
	u.signing = par.Start(func() []byte { return s.Sign(msg) })
}

// beginSign records the key, forgets any earlier signature, and
// returns the statement to sign, already begun in the memo.
func (u *Update) beginSign(s *crypt.Signer) []byte {
	u.PubKey = s.Public() // derives the pair here, never on the helper
	msg := u.signedBytes()
	u.Sig, u.signing = nil, nil
	u.memo.Begin(u.PubKey, msg)
	return msg
}

// endSign installs the signature over beginSign's statement.
func (u *Update) endSign(sig []byte) {
	u.Sig = sig
	u.memo.End(sig)
}

// resolve joins a signature StartSign left running.
func (u *Update) resolve() {
	if t := u.signing; t != nil {
		u.signing = nil
		u.endSign(t.Wait())
	}
}

// VerifySig checks the update's signature; writer authorisation against
// the ACL is a separate step (package acl).
//
// Every replica of a 3f+1 tier verifies the same update, so a
// successful verification is memoised under digests of the signed
// statement, key, and signature: repeat calls cost three hashes
// instead of an ed25519 scalar multiplication, while any tamper with
// the update, key, or signature changes a digest and forces the full
// check.  Failures are never cached.
func (u *Update) VerifySig() bool {
	u.resolve()
	ok, _ := u.memo.Verify(u.PubKey, u.signedBytes(), u.Sig)
	return ok
}

// Digest names the update's content: the SHA-1 of the statement its
// signature covers.  Signing, or a VerifySig that passed, leaves it in
// the signature memo, which answers without hashing; an update that was
// neither is digested here.  The memo is not re-checked, so content
// changed after signing (or in a struct copy) keeps the signed digest
// until it is signed again.
func (u *Update) Digest() guid.GUID {
	if d := u.memo.Statement(); d != guid.Zero {
		return d
	}
	return guid.FromData(u.signedBytes())
}

// WireSize estimates the update's total bytes on the wire — the u term
// of the paper's Figure 6 cost model.  It does not join a signature
// still being computed: every Ed25519 signature is the same length.
func (u *Update) WireSize() int {
	sig := len(u.Sig)
	if u.signing != nil {
		sig = crypt.SignatureSize
	}
	n := guid.Size*2 + 8 + 8 + len(u.PubKey) + sig
	for _, g := range u.Guards {
		for _, p := range g.Preds {
			n += p.wireSize()
		}
		for _, a := range g.Actions {
			n += a.wireSize()
		}
	}
	return n
}

// Outcome reports what applying an update did: whether a guard fired,
// and which.  It names no version: the GUID is a Merkle root over every
// block, and the primary tier's History already names each committed
// version by it, so an outcome logged on every replica carries none.
// Eight bytes, held by value in every log entry.
type Outcome struct {
	Committed bool
	// Guard is the index of the guard that fired; -1 on abort.
	Guard int32
}

// Apply evaluates u against base and, when a guard fires, returns the
// successor version with the guard's actions applied atomically: either
// every action applies or the update aborts with base unchanged.  The
// update's semantics follow §4.4.1 exactly; signature and ACL checks
// are the caller's responsibility.
func Apply(u *Update, base *object.Version, now time.Duration) (*object.Version, Outcome, error) {
	for i, g := range u.Guards {
		if !g.holds(base) {
			continue
		}
		next := base.Clone(now)
		for _, a := range g.Actions {
			if err := a.apply(next); err != nil {
				// A malformed action aborts the whole update atomically:
				// base remains the current version.
				return nil, Outcome{Committed: false, Guard: -1}, err
			}
		}
		return next, Outcome{Committed: true, Guard: int32(i)}, nil
	}
	return nil, Outcome{Committed: false, Guard: -1}, nil
}
