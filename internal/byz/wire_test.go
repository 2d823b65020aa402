package byz

import (
	"encoding/binary"
	"testing"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/simnet"
)

// Test-only encoders for the two view-change messages: each field as the
// message struct holds it, big-endian, a member index in two bytes and
// a count in two.  In Castro and Liskov's protocol (OSDI '99, §4.4)
// view-change and new-view messages are signed, since members other
// than the sender must check them when they recompute the new view's
// order, so each ends in one ed25519 signature.  A prepared certificate
// is its pre-prepare's header (tag, view, sequence number, digest,
// signature) and 2f signed prepares (the same fields and the member);
// an executed entry is its sequence number and request ID.

func putU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func putU16(b []byte, v int) []byte { return binary.BigEndian.AppendUint16(b, uint16(v)) }

func signed(b []byte) []byte { return append(b, make([]byte, crypt.SignatureSize)...) }

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
