package byz

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/simnet"
)

// Test-only encoders, one per message the tier sends: each field as the
// message struct holds it, big-endian, a member index and a count in
// two bytes, a node ID in four, and the request payload as its Size
// bytes.
//
// Authenticators follow Castro and Liskov ("Practical Byzantine Fault
// Tolerance", OSDI '99, and its TOCS 2002 sequel).  In the normal case
// — request, pre-prepare, prepare and commit — a message carries an
// authenticator, one MAC per tier member, since only the tier checks
// it.  View-change and new-view messages are signed, since members
// other than the sender must check them when they recompute the new
// view's order, so each ends in one ed25519 signature.  A reply is
// signed too, where PBFT's carries a MAC for its client: OceanStore's
// commit certificate (§4.4.3) is f+1 replies that a party which saw none
// of the protocol can verify offline, and a MAC convinces only its
// receiver.
//
// A prepared certificate is its pre-prepare's header (tag, view,
// sequence number, digest, signature) and 2f signed prepares (the same
// fields and the member); an executed entry is its sequence number and
// request ID.

// macSize is one MAC of an authenticator: a truncated HMAC tag, a size
// these encoders choose.
const macSize = 8

func putU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func putU16(b []byte, v int) []byte { return binary.BigEndian.AppendUint16(b, uint16(v)) }

func signed(b []byte) []byte { return append(b, make([]byte, crypt.SignatureSize)...) }

// authenticated appends an authenticator for a tier of n.
func authenticated(b []byte, n int) []byte { return append(b, make([]byte, n*macSize)...) }

// encodeRequest is a client request: its ID (the update's digest), the
// client and, unless it is a backup's digest-only note, the payload.
func encodeRequest(r Request, n int) []byte {
	b := append(append([]byte(nil), r.Tag[:]...), r.ID[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(r.Client))
	if r.full() {
		b = append(b, make([]byte, r.Size)...)
	}
	return authenticated(b, n)
}

// encodePrePrepare is the primary's header with its authenticator and,
// as in PBFT, the client's request piggybacked whole.
func encodePrePrepare(pp prePrepareMsg, n int) []byte {
	b := append([]byte(nil), pp.Tag[:]...)
	b = putU64(putU64(b, pp.View), pp.Seq)
	b = authenticated(append(b, pp.Req.ID[:]...), n)
	return append(b, encodeRequest(pp.Req, n)...)
}

// encodeVoteMsg is a prepare or a commit.
func encodeVoteMsg(v voteMsg, n int) []byte {
	b := append([]byte(nil), v.Tag[:]...)
	b = putU64(putU64(b, v.View), v.Seq)
	b = putU16(append(b, v.Digest[:]...), v.Replica)
	return authenticated(b, n)
}

// encodeReply is a member's signed reply.
func encodeReply(m replyMsg) []byte {
	b := append([]byte(nil), m.Tag[:]...)
	b = putU64(b, m.Seq)
	b = append(append(b, m.ID[:]...), m.Digest[:]...)
	return signed(putU16(b, m.From))
}

// encode is the wire form of any message the tier sends.
func encode(m simnet.Message, n, f int) []byte {
	switch p := m.Payload.(type) {
	case Request:
		return encodeRequest(p, n)
	case prePrepareMsg:
		return encodePrePrepare(p, n)
	case voteMsg:
		return encodeVoteMsg(p, n)
	case replyMsg:
		return encodeReply(p)
	case *viewChangeMsg:
		return encodeVote(p, f)
	case *newViewMsg:
		return encodeNewView(p, f)
	}
	panic(fmt.Sprintf("no encoder for %s (%T)", m.Kind, m.Payload))
}

func encodeVote(vc *viewChangeMsg, f int) []byte {
	b := append([]byte(nil), vc.Tag[:]...)
	b = putU64(b, vc.NewView)
	b = putU16(b, vc.Replica)
	b = putU64(putU64(b, vc.Floor), vc.Cursor)
	b = putU16(putU16(b, len(vc.Prepared)), len(vc.Executed))
	for _, c := range vc.Prepared {
		pp := c.PrePrepare
		b = append(b, pp.Tag[:]...)
		b = putU64(putU64(b, pp.View), pp.Seq)
		b = signed(append(b, pp.Req.ID[:]...))
		for _, m := range c.Prepares[:2*f] {
			b = append(b, pp.Tag[:]...)
			b = putU64(putU64(b, pp.View), pp.Seq)
			b = append(b, pp.Req.ID[:]...)
			b = signed(putU16(b, m))
		}
	}
	for _, e := range vc.Executed {
		b = append(putU64(b, e.Seq), e.Req.ID[:]...)
		b = append(b, make([]byte, e.Req.Size)...)
	}
	return signed(b)
}

func encodeNewView(nm *newViewMsg, f int) []byte {
	b := append([]byte(nil), nm.Tag[:]...)
	b = putU64(b, nm.View)
	n := 0
	for _, vc := range nm.Votes {
		if vc != nil {
			n++
		}
	}
	b = putU16(b, n)
	for _, vc := range nm.Votes {
		if vc != nil {
			b = append(b, encodeVote(vc, f)...)
		}
	}
	for _, req := range nm.Payloads {
		b = append(b, make([]byte, req.Size)...)
	}
	return signed(b)
}

// TestViewChangeBytes pins the two view-change messages' charges (both
// travel as byz-viewchange) on a view change after three executions,
// with one slot prepared and uncommitted: every vote is CSmall + one
// certificate (CHeader + 2f CSmall prepares) + three 28-byte executed
// entries = 484 B, and the new-view CSmall + the 2f+1 votes its primary
// used = 1 552 B.  Each message the network charged is one of those.  The encoders put every
// vote and the new-view within 25 % above its charge — the charges'
// round 100-byte headers sit under a header and signature — and an
// executed entry at exactly its 28 bytes.
func TestViewChangeBytes(t *testing.T) {
	const (
		voteB    = CSmall + CHeader + 2*CSmall + 3*executedEntrySize
		newViewB = CSmall + 3*voteB
	)
	k, net, g, _, _ := preparedAtFour(t)
	charged := map[int]int{} // by size, the kind's messages sent
	net.SetTrace(func(ev simnet.TraceEvent) {
		if ev.Event == "send" && ev.Kind == kindViewChange {
			charged[ev.Size]++
		}
	})
	k.RunFor(time.Second)
	net.SetTrace(nil)
	if len(charged) != 2 || charged[voteB] == 0 || charged[newViewB] == 0 {
		t.Fatalf("%s messages charged, by size: %v; want votes of %d B and new-views of %d B", kindViewChange, charged, voteB, newViewB)
	}
	nm := g.replicas[2].newView
	if nm == nil || nm.size(g.f) != newViewB {
		t.Fatalf("member 2 holds new-view %+v", nm)
	}
	within := func(what string, encoded, charge int) {
		t.Logf("%s: encoded %d B, charged %d B", what, encoded, charge)
		if encoded < charge || encoded > charge*5/4 {
			t.Errorf("%s encodes to %d B, outside [%d, %d]", what, encoded, charge, charge*5/4)
		}
	}
	for _, vc := range nm.Votes {
		if vc == nil {
			continue
		}
		within("view-change vote", len(encodeVote(vc, g.f)), vc.size(g.f))
		one := *vc
		one.Prepared, one.Executed = nil, vc.Executed[:1]
		none := one
		none.Executed = nil
		if d := len(encodeVote(&one, g.f)) - len(encodeVote(&none, g.f)); d != executedEntrySize {
			t.Errorf("an executed entry encodes to %d B, charged %d", d, executedEntrySize)
		}
	}
	within("new-view", len(encodeNewView(nm, g.f)), nm.size(g.f))
}

// encodeEach is a fault plan that drops nothing and hands every message
// sent to fn.
type encodeEach func(simnet.Message)

func (fn encodeEach) FilterSend(m simnet.Message, _ time.Duration) (bool, time.Duration) {
	fn(m)
	return false, 0
}

// TestNormalCaseBytes replays a seeded 4-member tier serving 300
// requests of 16 B, 256 B and 4 KiB from three clients, encodes every
// send, and sets the bytes each kind was charged (from simnet's trace)
// beside the bytes it encodes to.  The charge leaves out or rounds what
// the encoding carries, by a fixed amount a message, and each kind's
// mean gap must stay within its allowance:
//   - request, 24 B under: a CHeader or CSmall of 100 B against tag, ID,
//     client and a 32 B authenticator;
//   - pre-prepare, 64 B over: CHeader covers its own header, not the
//     piggybacked request's ID, client and authenticator;
//   - prepare and commit, 10 B under CSmall;
//   - reply, 30 B under CReply plus the signature.
func TestNormalCaseBytes(t *testing.T) {
	k, net, g, _ := tier(t, 4, 1, 36)
	clients := []simnet.NodeID{net.AddNode(0, 0).ID, net.AddNode(0, 0).ID, net.AddNode(0, 0).ID}
	type tally struct{ sent, declared, encoded, seen int }
	kinds := map[string]*tally{}
	at := func(kind string) *tally {
		if kinds[kind] == nil {
			kinds[kind] = &tally{}
		}
		return kinds[kind]
	}
	net.SetTrace(func(ev simnet.TraceEvent) {
		if ev.Event == "send" {
			at(ev.Kind).sent++
			at(ev.Kind).declared += ev.Size
		}
	})
	net.SetFaultPlan(encodeEach(func(m simnet.Message) {
		at(m.Kind).seen++
		at(m.Kind).encoded += len(encode(m, len(g.nodes), g.f))
	}))
	const total = 300
	resolved := 0
	for i := 0; i < total; i++ {
		size := []int{16, 256, 4096}[i%3]
		g.Submit(clients[i%3], req(fmt.Sprint("r", i), size), func(Result) { resolved++ })
		if i%30 == 29 {
			k.RunFor(time.Second)
		}
	}
	k.RunFor(time.Second)
	net.SetTrace(nil)
	net.SetFaultPlan(nil)
	if resolved != total {
		t.Fatalf("resolved %d of %d", resolved, total)
	}
	allowance := map[string]int{kindRequest: 24, kindPrePrepare: 64, kindPrepare: 10, kindCommit: 10, kindReply: 30}
	names := make([]string, 0, len(kinds))
	for kind := range kinds {
		names = append(names, kind)
	}
	sort.Strings(names)
	for _, kind := range names {
		c := kinds[kind]
		gap := float64(c.encoded-c.declared) / float64(c.sent)
		t.Logf("%-15s %6d msgs  charged %9d B  encoded %9d B  %+6.1f B/msg", kind, c.sent, c.declared, c.encoded, gap)
		a, ok := allowance[kind]
		switch {
		case !ok:
			t.Errorf("%s sent in the normal case", kind)
		case c.seen != c.sent:
			t.Errorf("%s: %d sends traced, %d encoded", kind, c.sent, c.seen)
		case gap < -float64(a) || gap > float64(a):
			t.Errorf("%s: %+.1f B a message between charge and encoding, allowance %d", kind, gap, a)
		}
	}
	if len(kinds) != len(allowance) {
		t.Fatalf("%d kinds sent, want the %d normal-case ones", len(kinds), len(allowance))
	}
}
