package guid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSelfCertifyingDeterminism(t *testing.T) {
	pub := []byte("owner-public-key")
	a := FromOwnerAndName(pub, "inbox")
	b := FromOwnerAndName(pub, "inbox")
	if a != b {
		t.Fatalf("same key+name must give same GUID: %v vs %v", a, b)
	}
	c := FromOwnerAndName(pub, "outbox")
	if a == c {
		t.Fatal("different names must give different GUIDs")
	}
	d := FromOwnerAndName([]byte("other-key"), "inbox")
	if a == d {
		t.Fatal("different owners must give different GUIDs")
	}
}

func TestDomainSeparation(t *testing.T) {
	// The same byte string hashed under different roles must not collide:
	// an attacker must not be able to forge a server GUID equal to a
	// fragment GUID, etc.
	b := []byte("payload")
	if FromPublicKey(b) == FromData(b) {
		t.Fatal("key and data GUID namespaces collide")
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		g := Random(r)
		got, err := Parse(g.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != g {
			t.Fatalf("round trip: %v != %v", got, g)
		}
	}
	if _, err := Parse("zz"); err == nil {
		t.Fatal("short string must fail")
	}
	if _, err := Parse("zz" + Zero.String()[2:]); err == nil {
		t.Fatal("non-hex must fail")
	}
}

func TestDigitExtraction(t *testing.T) {
	var g GUID
	// Least significant byte 0xAB: digit 0 = 0xB, digit 1 = 0xA.
	g[Size-1] = 0xab
	g[Size-2] = 0xcd
	if got := g.Digit(0); got != 0xb {
		t.Fatalf("digit 0 = %x, want b", got)
	}
	if got := g.Digit(1); got != 0xa {
		t.Fatalf("digit 1 = %x, want a", got)
	}
	if got := g.Digit(2); got != 0xd {
		t.Fatalf("digit 2 = %x, want d", got)
	}
	if got := g.Digit(3); got != 0xc {
		t.Fatalf("digit 3 = %x, want c", got)
	}
}

func TestMatchingDigits(t *testing.T) {
	var a, b GUID
	a[Size-1], b[Size-1] = 0x3b, 0x2b // share low nibble only
	if got := a.MatchingDigits(b); got != 1 {
		t.Fatalf("got %d matching digits, want 1", got)
	}
	if got := a.MatchingDigits(a); got != Digits {
		t.Fatalf("self-match = %d, want %d", got, Digits)
	}
}

func TestSaltedDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := Random(r)
	seen := map[GUID]bool{g: true}
	for s := uint32(0); s < 8; s++ {
		sg := g.Salted(s)
		if seen[sg] {
			t.Fatalf("salt %d collided", s)
		}
		seen[sg] = true
		if sg != g.Salted(s) {
			t.Fatal("salting must be deterministic")
		}
	}
}

func TestCompareAndXOR(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, b := Random(r), Random(r)
	if a.Compare(a) != 0 {
		t.Fatal("self compare must be 0")
	}
	if a.Compare(b) == b.Compare(a) && a != b {
		t.Fatal("compare must be antisymmetric")
	}
}

func TestQuickMatchingDigitsSymmetric(t *testing.T) {
	f := func(a, b [Size]byte) bool {
		ga, gb := GUID(a), GUID(b)
		return ga.MatchingDigits(gb) == gb.MatchingDigits(ga)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDigitReconstruction(t *testing.T) {
	// The digit view must be a faithful decomposition: reassembling all
	// digits reproduces the GUID.
	f := func(raw [Size]byte) bool {
		g := GUID(raw)
		var back GUID
		for i := 0; i < Digits; i++ {
			d := g.Digit(i)
			if i%2 == 0 {
				back[Size-1-i/2] |= d
			} else {
				back[Size-1-i/2] |= d << 4
			}
		}
		return back == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShortAndIsZero(t *testing.T) {
	if Zero != (GUID{}) {
		t.Fatal("Zero must be zero")
	}
	g := FromData([]byte("x"))
	if g == Zero {
		t.Fatal("hash must not be zero")
	}
	if len(g.Short()) != 8 {
		t.Fatalf("short form length %d", len(g.Short()))
	}
}

// TestHashesDoNotAllocate: every derivation sums into the GUID it
// returns, so hashing puts nothing on the heap.
func TestHashesDoNotAllocate(t *testing.T) {
	data, g := []byte("some fragment contents"), FromData([]byte("x"))
	for name, f := range map[string]func(){
		"FromData":         func() { FromData(data) },
		"FromPublicKey":    func() { FromPublicKey(data) },
		"FromOwnerAndName": func() { FromOwnerAndName(data, "name") },
		"Salted":           func() { g.Salted(7) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.0f times a call", name, n)
		}
	}
}
