package core

import (
	"fmt"
	"testing"
	"time"

	"oceanstore/internal/acl"
	"oceanstore/internal/archive"
	"oceanstore/internal/byz"
	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/update"
)

func smallPool(seed int64) *Pool {
	cfg := DefaultPoolConfig()
	cfg.Nodes = 24
	cfg.Ring.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	cfg.BlockSize = 64
	return NewPool(seed, cfg)
}

func TestCreateReadWrite(t *testing.T) {
	p := smallPool(1)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("notes", []byte("hello "))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(ACID)
	got, err := sess.Read(obj)
	if err != nil || string(got) != "hello " {
		t.Fatalf("initial read %q err %v", got, err)
	}
	if _, err := sess.Append(obj, []byte("world")); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	got, err = sess.Read(obj)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("after append %q err %v", got, err)
	}
	if _, err := sess.replace(obj, 0, []byte("howdy "), nil); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	got, err = sess.Read(obj)
	if err != nil || string(got) != "howdy world" {
		t.Fatalf("after replace %q err %v", got, err)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	p := smallPool(2)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	if _, err := alice.Create("x", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Create("x", nil); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestReaderRestrictionByKeyDistribution(t *testing.T) {
	p := smallPool(3)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	bob := p.NewClient(21, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("secret", []byte("classified"))
	if err != nil {
		t.Fatal(err)
	}
	// Bob has no key: read denied at the client (servers only ever see
	// ciphertext anyway).
	if _, err := bob.NewSession(ACID).Read(obj); err == nil {
		t.Fatal("keyless read succeeded")
	}
	if err := alice.GrantRead(obj, bob); err != nil {
		t.Fatal(err)
	}
	got, err := bob.NewSession(ACID).Read(obj)
	if err != nil || string(got) != "classified" {
		t.Fatalf("after grant: %q %v", got, err)
	}
	if err := bob.GrantRead(obj, alice); err != nil {
		t.Fatal(err) // bob can re-share; keys are capabilities
	}
}

func TestWriterRestrictionViaACL(t *testing.T) {
	p := smallPool(4)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	mallory := p.NewClient(21, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("guestbook", []byte("start;"))
	if err != nil {
		t.Fatal(err)
	}
	alice.GrantRead(obj, mallory)

	// Mallory can read but her writes are dropped by servers.
	msess := mallory.NewSession(ACID)
	if _, err := msess.Append(obj, []byte("spam;")); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	got, _ := alice.NewSession(ACID).Read(obj)
	if string(got) != "start;" {
		t.Fatalf("unauthorized write applied: %q", got)
	}

	// Alice grants Mallory write privilege by re-certifying the ACL.
	grant := &acl.ACL{Entries: []acl.Entry{{PubKey: mallory.Signer.Public(), Priv: acl.PrivWrite}}}
	if err := p.SetACL(alice.Signer, obj, grant, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := msess.Append(obj, []byte("hi;")); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	got, _ = alice.NewSession(ACID).Read(obj)
	if string(got) != "start;hi;" {
		t.Fatalf("authorized write missing: %q", got)
	}
}

func TestFloatingReplicasAndLocation(t *testing.T) {
	p := smallPool(5)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("doc", []byte("d"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddReplica(obj, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.AddReplica(obj, 11); err != nil {
		t.Fatal(err)
	}
	// The mesh locates some live replica (primary or secondary).
	holder, err := p.Locate(15, obj)
	if err != nil {
		t.Fatal(err)
	}
	if holder < 0 {
		t.Fatal("no holder")
	}
	if err := p.RemoveReplica(obj, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveReplica(obj, 10); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestSessionGuaranteesReadYourWrites(t *testing.T) {
	p := smallPool(6)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("ryw", []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	// Add secondaries that will lag (no gossip configured in this window).
	p.AddReplica(obj, 10)
	p.AddReplica(obj, 11)

	sess := alice.NewSession(ReadYourWrites | MonotonicReads)
	if _, err := sess.Append(obj, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	// Immediately read: lagging secondaries have not seen the write, so
	// RYW must route to a replica that has (the primary, in the worst
	// case) — never returning stale "".  Advance a little so tentative
	// copies land somewhere.
	p.Run(30 * time.Second)
	got, err := sess.Read(obj)
	if err != nil || string(got) != "mine" {
		t.Fatalf("RYW read %q err %v", got, err)
	}
	// A fresh session without guarantees may read anywhere — but content
	// eventually converges.
	p.Run(time.Minute)
	got, _ = alice.NewSession(0).Read(obj)
	if string(got) != "mine" {
		t.Fatalf("converged read %q", got)
	}
}

func TestTentativeVsCommittedReads(t *testing.T) {
	cfg := DefaultPoolConfig()
	cfg.Nodes = 24
	cfg.Ring.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	cfg.BlockSize = 64
	// Long base latency so the commit takes a while.
	cfg.BaseLatency = 200 * time.Millisecond
	cfg.Ring.GossipInterval = 100 * time.Millisecond
	p := NewPool(7, cfg)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("opt", []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	p.AddReplica(obj, 10)
	alice.Spread = 2

	opt := alice.NewSession(0)       // optimistic: tentative reads
	strong := alice.NewSession(ACID) // committed reads only
	if _, err := opt.Append(obj, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	// Before the Byzantine round completes, gossip has spread the
	// tentative update; optimistic reads see it, committed reads do not.
	p.Run(350 * time.Millisecond)
	og, _ := opt.Read(obj)
	sg, _ := strong.Read(obj)
	if string(og) != "fast" {
		t.Fatalf("optimistic read %q, want tentative data", og)
	}
	if string(sg) != "" {
		t.Fatalf("committed read %q before commit", sg)
	}
	p.Run(30 * time.Second)
	sg, _ = strong.Read(obj)
	if string(sg) != "fast" {
		t.Fatalf("committed read %q after commit", sg)
	}
}

func TestCommitAbortCallbacks(t *testing.T) {
	p := smallPool(8)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("cb", []byte("AABB"))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(ACID)
	var commits []update.UpdateID
	sess.OnCommit(func(o guid.GUID, id update.UpdateID) { commits = append(commits, id) })

	okID, err := sess.Append(obj, []byte("CC"))
	if err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	// A stale version-guarded update aborts: no commit callback fires.
	ed, _, err := sess.Editor(obj)
	if err != nil {
		t.Fatal(err)
	}
	stale := update.NewVersionGuarded(obj, 999, update.BlockOps(ed.Append([]byte("XX"))))
	sess.Submit(stale)
	p.Run(30 * time.Second)

	if len(commits) != 1 || commits[0] != okID {
		t.Fatalf("commits = %v, want [%v]", commits, okID)
	}
	if got, _ := sess.Read(obj); string(got) != "AABBCC" {
		t.Fatalf("after the abort the object reads %q", got)
	}
}

func TestTransactionCommitAndConflict(t *testing.T) {
	p := smallPool(9)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("acct", []byte("balance=100"))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(ACID)

	// Two transactions read the same snapshot and both try to commit.
	tx1, err := sess.Begin(obj)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := sess.Begin(obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Append([]byte("+50")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Append([]byte("-50")); err != nil {
		t.Fatal(err)
	}
	// Staged reads see own writes.
	if got, _ := tx1.Read(); string(got) != "balance=100+50" {
		t.Fatalf("tx1 staged read %q", got)
	}
	if _, err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	p.Run(time.Minute)
	if tx1.Status() != TxCommitted {
		t.Fatalf("tx1 status %v", tx1.Status())
	}
	if tx2.Status() != TxAborted {
		t.Fatalf("tx2 status %v, want aborted (conflict)", tx2.Status())
	}
	got, _ := sess.Read(obj)
	if string(got) != "balance=100+50" {
		t.Fatalf("final balance %q", got)
	}
	// Double commit is an error; empty tx commits trivially.
	if _, err := tx1.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
	tx3, _ := sess.Begin(obj)
	if _, err := tx3.Commit(); err != nil || tx3.Status() != TxCommitted {
		t.Fatal("empty tx should commit trivially")
	}
	if err := tx3.Append([]byte("x")); err == nil {
		t.Fatal("staging after commit accepted")
	}
}

// TestTxLeavesNoSessionCallbacks: a transaction learns its outcome from
// its own write and adds nothing to its session.  Fifty transactions on
// one session, raced in pairs from one snapshot, each end in the right
// state, and the session's callback lists hold what the caller left
// there and nothing more.
func TestTxLeavesNoSessionCallbacks(t *testing.T) {
	p := smallPool(12)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("ledger", []byte("n="))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(ACID)
	commits := 0
	sess.OnCommit(func(guid.GUID, update.UpdateID) { commits++ })
	const pairs = 25
	for i := 1; i <= pairs; i++ {
		win, err := sess.Begin(obj)
		if err != nil {
			t.Fatal(err)
		}
		lose, err := sess.Begin(obj)
		if err != nil {
			t.Fatal(err)
		}
		if err := win.Append([]byte(fmt.Sprintf("%02d;", i))); err != nil {
			t.Fatal(err)
		}
		if err := lose.Append([]byte("lost;")); err != nil {
			t.Fatal(err)
		}
		if _, err := win.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := lose.Commit(); err != nil {
			t.Fatal(err)
		}
		p.Run(time.Minute)
		if win.Status() != TxCommitted || lose.Status() != TxAborted {
			t.Fatalf("pair %d: statuses %v and %v, want committed and aborted", i, win.Status(), lose.Status())
		}
	}
	want := "n="
	for i := 1; i <= pairs; i++ {
		want += fmt.Sprintf("%02d;", i)
	}
	if got, _ := sess.Read(obj); string(got) != want || commits != pairs {
		t.Fatalf("final %q after %d commits, want %q after %d", got, commits, want, pairs)
	}
	if len(sess.onCommit) != 1 {
		t.Fatalf("session holds %d commit callbacks, want the caller's 1", len(sess.onCommit))
	}
}

func TestFSFacade(t *testing.T) {
	p := smallPool(10)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	fs, err := alice.NewFS("home")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	if err := fs.WriteFile("/docs/readme.txt", []byte("read me")); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	got, err := fs.ReadFile("/docs/readme.txt")
	if err != nil || string(got) != "read me" {
		t.Fatalf("read file %q err %v", got, err)
	}
	// Overwrite.
	if err := fs.WriteFile("/docs/readme.txt", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	got, _ = fs.ReadFile("/docs/readme.txt")
	if string(got) != "v2" {
		t.Fatalf("after overwrite %q", got)
	}
	// Listing.
	names, err := fs.ReadDir("/")
	if err != nil || len(names) != 1 || names[0] != "docs/" {
		t.Fatalf("readdir / = %v err %v", names, err)
	}
	names, _ = fs.ReadDir("/docs")
	if len(names) != 1 || names[0] != "readme.txt" {
		t.Fatalf("readdir /docs = %v", names)
	}
	// Errors.
	if _, err := fs.ReadFile("/docs"); err == nil {
		t.Fatal("read of directory accepted")
	}
	if _, err := fs.ReadFile("/missing"); err == nil {
		t.Fatal("missing file read")
	}
	if err := fs.Mkdir("/docs"); err == nil {
		t.Fatal("mkdir over existing accepted")
	}
	if err := fs.WriteFile("relative", nil); err == nil {
		t.Fatal("relative path accepted")
	}
}

func TestLookupAndVersionHistory(t *testing.T) {
	p := smallPool(11)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	fs, err := alice.NewFS("h")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	// Overwrite once so the object gains a committed successor version.
	if err := fs.WriteFile("/f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	obj, err := fs.Lookup("/f")
	if err != nil {
		t.Fatal(err)
	}
	ring, ok := p.Ring(obj)
	if !ok {
		t.Fatal("no ring for file object")
	}
	v := ring.CommittedVersion()
	if v == nil || v.Num == 0 {
		t.Fatalf("expected an advanced committed version, got %+v", v)
	}
	// Version GUIDs chain: Prev must reference some earlier version.
	if v.Prev == guid.Zero {
		t.Fatal("version chain broken: zero Prev")
	}
}

// TestFailedCreateLeavesNothingBehind: a certificate issued for
// another name, or tampered after Certify, fails the create before a
// ring is registered or archived, and a correct create of the same
// name then succeeds.
func TestFailedCreateLeavesNothingBehind(t *testing.T) {
	p := smallPool(3)
	owner := crypt.NewSigner(p.K.Rand())
	key := crypt.NewBlockKey(p.K.Rand())
	obj := guid.FromOwnerAndName(owner.Public(), "doc")
	writers := &acl.ACL{}
	p.ACLs.AddACL(writers)
	tampered := acl.Certify(owner, obj, writers, 1)
	tampered.Serial++
	bad := map[string]*acl.Certificate{
		"another name": acl.Certify(owner, guid.FromOwnerAndName(owner.Public(), "other"), writers, 1),
		"tampered":     tampered,
	}
	roots, next := len(p.Arch.Roots()), p.nextPrimary
	for why, cert := range bad {
		if _, err := p.CreateObject(owner, "doc", []byte("v0"), key, cert); err == nil {
			t.Fatalf("%s: create accepted the certificate", why)
		}
		if _, ok := p.Ring(obj); ok {
			t.Fatalf("%s: failed create left a ring behind", why)
		}
	}
	if got := len(p.Arch.Roots()); got != roots || p.nextPrimary != next {
		t.Fatalf("failed creates archived %d versions and moved the primary rotation %d -> %d",
			got-roots, next, p.nextPrimary)
	}
	got, err := p.CreateObject(owner, "doc", []byte("v0"), key, acl.Certify(owner, obj, writers, 1))
	if err != nil || got != obj {
		t.Fatalf("retried create: %v, %v", got, err)
	}
}

// TestSessionWriteCarriesCertificate: a session write submitted with
// SubmitCertified receives the tier's commit certificate, which
// verifies offline against the tier's public keys, and the session's
// next write is numbered right after it.
func TestSessionWriteCarriesCertificate(t *testing.T) {
	p := smallPool(41)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("receipts", []byte("base."))
	if err != nil {
		t.Fatal(err)
	}
	s := alice.NewSession(ACID)
	ed, _, err := s.Editor(obj)
	if err != nil {
		t.Fatal(err)
	}
	note := update.NewUnconditional(obj, update.BlockOps(ed.Append([]byte("A"))))
	var receipts []byz.Result
	s.SubmitCertified(note, func(r byz.Result) { receipts = append(receipts, r) })
	p.Run(30 * time.Second)
	if len(receipts) != 1 || !receipts[0].Committed {
		t.Fatalf("got %d results (%+v), want one committed", len(receipts), receipts)
	}
	ring, _ := p.Ring(obj)
	keys := ring.Group().PublicKeys()
	cert := receipts[0].Certificate
	if cert == nil || !cert.Verify(keys, TierFaults) {
		t.Fatalf("certificate %+v does not verify against the tier's %d keys", cert, len(keys))
	}
	forged := *cert
	forged.Seq++
	if forged.Verify(keys, TierFaults) {
		t.Fatal("a copy claiming the next sequence number verifies")
	}
	next, err := s.Append(obj, []byte("B"))
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != note.Seq+1 {
		t.Fatalf("the next write is numbered %d, want %d after the certified one", next.Seq, note.Seq+1)
	}
	p.Run(30 * time.Second)
	if got, err := s.Read(obj); err != nil || string(got) != "base.AB" {
		t.Fatalf("read %q, %v; want both writes in order", got, err)
	}
}
