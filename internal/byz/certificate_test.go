package byz

import (
	"testing"
	"time"

	"oceanstore/internal/guid"
)

func TestCommitCertificateVerifiesOffline(t *testing.T) {
	k, _, g, client := tier(t, 7, 2, 60)
	var res *Result
	g.Submit(client, req("certified", 500), func(r Result) { res = &r })
	k.RunFor(10 * time.Second)
	if res == nil || res.Certificate == nil {
		t.Fatal("no certificate produced")
	}
	cert := res.Certificate
	cert.ResolveSigs()
	if len(cert.Sigs) < g.f+1 {
		t.Fatalf("certificate has %d sigs, need >= %d", len(cert.Sigs), g.f+1)
	}
	// A party that never ran the protocol verifies with only the tier's
	// public keys and f.
	if !cert.Verify(g.PublicKeys(), g.f) {
		t.Fatal("valid certificate rejected offline")
	}
	// Tampering with the claimed digest invalidates it.
	bad := *cert
	bad.Digest = guid.FromData([]byte("forged"))
	if bad.Verify(g.PublicKeys(), g.f) {
		t.Fatal("forged digest verified")
	}
	// Tampering with the sequence number invalidates it.
	bad = *cert
	bad.Seq = cert.Seq + 1
	if bad.Verify(g.PublicKeys(), g.f) {
		t.Fatal("forged seq verified")
	}
	// Dropping signatures below the quorum invalidates it.
	bad = *cert
	bad.Sigs = map[int][]byte{}
	n := 0
	for i, s := range cert.Sigs {
		if n >= g.f {
			break
		}
		bad.Sigs[i] = s
		n++
	}
	if bad.Verify(g.PublicKeys(), g.f) {
		t.Fatal("sub-quorum certificate verified")
	}
	// Out-of-range replica indexes are rejected.
	bad = *cert
	bad.Sigs = map[int][]byte{99: []byte("junk")}
	if bad.Verify(g.PublicKeys(), g.f) {
		t.Fatal("out-of-range signer verified")
	}
	// Nil certificates never verify.
	var nilCert *CommitCertificate
	if nilCert.Verify(g.PublicKeys(), g.f) {
		t.Fatal("nil certificate verified")
	}
}

func TestCertificateExcludesLiars(t *testing.T) {
	k, _, g, client := tier(t, 7, 2, 61)
	g.SetFault(3, Lying)
	g.SetFault(5, Lying)
	var res *Result
	g.Submit(client, req("honest", 500), func(r Result) { res = &r })
	k.RunFor(10 * time.Second)
	if res == nil || res.Certificate == nil {
		t.Fatal("no certificate")
	}
	// The certificate must still verify: only honest replicas' replies
	// matched the true digest, and their signatures cover it.
	if !res.Certificate.Verify(g.PublicKeys(), g.f) {
		t.Fatal("certificate with liars present failed to verify")
	}
	// Lying replicas' signatures (over their fake digest) must not be
	// counted in the quorum: their entries either are absent or fail
	// verification against the true statement.
	res.Certificate.ResolveSigs()
	for idx := range res.Certificate.Sigs {
		if idx == 3 || idx == 5 {
			t.Fatalf("liar %d's signature included in certificate", idx)
		}
	}
}
