package core

import (
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"oceanstore/internal/acl"
	"oceanstore/internal/archive"
	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/naming"
	"oceanstore/internal/object"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

func TestTwoTierLocation(t *testing.T) {
	p := smallPool(20)
	tt := p.EnableTwoTier(3)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("near", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// The object's primary tier is in the overlay; a query from an
	// overlay neighbour should hit the probabilistic tier.
	ring, _ := p.Ring(obj)
	tier := ring.PrimaryNodes()
	probHits, globalHits := 0, 0
	for from := simnet.NodeID(0); from < 24; from++ {
		res, err := tt.Locate(from, obj)
		if err != nil {
			t.Fatalf("locate from %d: %v", from, err)
		}
		if res.Holder < 0 {
			t.Fatal("no holder")
		}
		if res.Probabilistic {
			probHits++
		} else {
			globalHits++
		}
	}
	if probHits == 0 {
		t.Fatal("probabilistic tier never answered — filters not working")
	}
	_ = globalHits // on a 24-node dense overlay everything may be in horizon
	if tt.ProbabilisticStateBytes(5) == 0 {
		t.Fatal("no probabilistic state at nodes")
	}
	// Deterministic fallback check: hide the object from the filters (as
	// if they were stale) — the global mesh must still find it.
	for _, nid := range tier {
		tt.noteRemoval(nid, obj)
	}
	res0, err := tt.Locate(20, obj)
	if err != nil {
		t.Fatalf("fallback locate failed: %v", err)
	}
	if res0.Probabilistic {
		t.Fatal("expected global fallback after filter removal")
	}
	if res0.Holder < 0 {
		t.Fatal("fallback found no holder")
	}
	// Restore filter state for the rest of the test.
	for _, nid := range tier {
		tt.notePlacement(nid, obj)
	}
	// Replica placement extends the probabilistic horizon.
	if err := p.AddReplica(obj, 12); err != nil {
		t.Fatal(err)
	}
	res, err := tt.Locate(12, obj)
	if err != nil || !res.Probabilistic || res.Hops != 0 {
		t.Fatalf("self-location after placement: %+v %v", res, err)
	}
	// Removal is reflected too.
	if err := p.RemoveReplica(obj, 12); err != nil {
		t.Fatal(err)
	}
	res, err = tt.Locate(12, obj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probabilistic && res.Holder == 12 {
		t.Fatal("removed replica still served probabilistically")
	}
}

// TestRemoveReplicaLeavesEveryLocator: retiring a floating replica
// through the pool takes it out of both location tiers — the Bloom
// filters and the mesh's pointers — so no start locates it afterwards.
func TestRemoveReplicaLeavesEveryLocator(t *testing.T) {
	p := smallPool(22)
	tt := p.EnableTwoTier(3)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("retired", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := p.Ring(obj)
	node := simnet.NodeID(0)
	for slices.Contains(ring.PrimaryNodes(), node) {
		node++
	}
	if err := p.AddReplica(obj, node); err != nil {
		t.Fatal(err)
	}
	if res, err := tt.Locate(node, obj); err != nil || res.Holder != node {
		t.Fatalf("two-tier locate from the new replica: %+v %v", res, err)
	}
	if holder, err := p.Locate(node, obj); err != nil || holder != node {
		t.Fatalf("mesh locate from the new replica: %d %v", holder, err)
	}
	if err := p.RemoveReplica(obj, node); err != nil {
		t.Fatal(err)
	}
	for from := simnet.NodeID(0); from < 24; from++ {
		res, err := tt.Locate(from, obj)
		if err != nil || res.Holder == node {
			t.Fatalf("two-tier locate from %d after removal: %+v %v", from, res, err)
		}
		holder, err := p.Locate(from, obj)
		if err != nil || holder == node {
			t.Fatalf("mesh locate from %d after removal: %d %v", from, holder, err)
		}
	}
}

func TestVersionQualifiedReads(t *testing.T) {
	p := smallPool(21)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("versioned", []byte("v0."))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(ACID)
	for i := 1; i <= 3; i++ {
		if _, err := sess.Append(obj, []byte("v"+string(rune('0'+i))+".")); err != nil {
			t.Fatal(err)
		}
		p.Run(30 * time.Second)
	}
	// Latest read.
	got, _ := sess.Read(obj)
	if string(got) != "v0.v1.v2.v3." {
		t.Fatalf("latest %q", got)
	}
	// Read by version number: version 1 contains only the first append.
	old, err := sess.ReadAt(obj, naming.Ref{HasVersion: true, VersionNum: 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(old) != "v0.v1." {
		t.Fatalf("version 1 read %q", old)
	}
	// Read by version GUID (the permanent hyperlink form).
	ring, _ := p.Ring(obj)
	v2, ok := ring.History().ByNum(2)
	if !ok {
		t.Fatal("version 2 missing from history")
	}
	byGUID, err := sess.ReadAt(obj, naming.Ref{HasVersion: true, ByGUID: true, VersionGUID: v2.GUID()})
	if err != nil || string(byGUID) != "v0.v1.v2." {
		t.Fatalf("by-GUID read %q err %v", byGUID, err)
	}
	// Unqualified ref reads the latest.
	cur, err := sess.ReadAt(obj, naming.Ref{})
	if err != nil || string(cur) != string(got) {
		t.Fatalf("unqualified ReadAt %q", cur)
	}
	// Missing version errors.
	if _, err := sess.ReadAt(obj, naming.Ref{HasVersion: true, VersionNum: 99}); err == nil {
		t.Fatal("nonexistent version read")
	}
	// Retirement drops old versions (latest survives).
	dropped := ring.History().Retire(object.KeepLandmarks{N: 1})
	if dropped == 0 {
		t.Fatal("nothing retired")
	}
	if _, err := sess.ReadAt(obj, naming.Ref{HasVersion: true, VersionNum: 1}); err == nil {
		t.Fatal("retired version still readable from the active replica")
	}
	if got, err := sess.Read(obj); err != nil || string(got) != "v0.v1.v2.v3." {
		t.Fatalf("latest lost after retirement: %q %v", got, err)
	}
}

func TestResolverWithVersionSuffix(t *testing.T) {
	p := smallPool(22)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	sess := alice.NewSession(ACID)

	// Build home:/docs/note by hand through directory objects.
	note, err := alice.Create("note", []byte("first."))
	if err != nil {
		t.Fatal(err)
	}
	docs := naming.NewDirectory()
	docs.Bind("note", note, false)
	docsObj, err := alice.Create("docs-dir", docs.Encode())
	if err != nil {
		t.Fatal(err)
	}
	root := naming.NewDirectory()
	root.Bind("docs", docsObj, true)
	rootObj, err := alice.Create("root-dir", root.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Append(note, []byte("second.")); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)

	r := sess.Resolver()
	r.AddRoot("home", rootObj)
	latest, err := sess.ResolveAndRead(r, "home:/docs/note")
	if err != nil || string(latest) != "first.second." {
		t.Fatalf("latest %q err %v", latest, err)
	}
	v0, err := sess.ResolveAndRead(r, "home:/docs/note@v0")
	if err != nil || string(v0) != "first." {
		t.Fatalf("v0 %q err %v", v0, err)
	}
}

func TestWebGateway(t *testing.T) {
	p := smallPool(23)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	fs, err := alice.NewFS("web")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/site"); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	if err := fs.WriteFile("/site/index.html", []byte("<h1>v1</h1>")); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	if err := fs.WriteFile("/site/index.html", []byte("<h1>v2</h1>")); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)

	gw := NewGateway(fs)

	get := func(url string) (int, string) {
		req := httptest.NewRequest("GET", url, nil)
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/site/index.html"); code != 200 || body != "<h1>v2</h1>" {
		t.Fatalf("GET file: %d %q", code, body)
	}
	// Directory listing.
	if code, body := get("/site/"); code != 200 || !strings.Contains(body, "index.html") {
		t.Fatalf("GET dir: %d %q", code, body)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "site/") {
		t.Fatalf("GET root: %d %q", code, body)
	}
	// Version-qualified permanent link: version 1 holds v1 content (the
	// file object was created with v1, overwrite made version 1).
	obj, _ := fs.Lookup("/site/index.html")
	ring, _ := p.Ring(obj)
	if _, ok := ring.History().ByNum(0); !ok {
		t.Fatal("history no longer holds version 0")
	}
	if code, body := get("/site/index.html?v=0"); code != 200 || body != "<h1>v1</h1>" {
		t.Fatalf("GET @v0: %d %q", code, body)
	}
	// Errors.
	if code, _ := get("/missing.html"); code != 404 {
		t.Fatalf("missing file: %d", code)
	}
	if code, _ := get("/site/index.html?v=zzz"); code != 400 {
		t.Fatalf("bad version: %d", code)
	}
	if code, _ := get("/site/index.html?v=99"); code != 410 {
		t.Fatalf("gone version: %d", code)
	}
	// Read-only: writes rejected.
	req := httptest.NewRequest("PUT", "/site/index.html", strings.NewReader("evil"))
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	if rec.Code != 405 {
		t.Fatalf("PUT: %d", rec.Code)
	}
}

func TestWorkingGroups(t *testing.T) {
	p := smallPool(24)
	owner := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	member1 := p.NewClient(21, crypt.NewSigner(p.K.Rand()))
	member2 := p.NewClient(22, crypt.NewSigner(p.K.Rand()))
	obj, err := owner.Create("team-doc", []byte("doc;"))
	if err != nil {
		t.Fatal(err)
	}
	owner.GrantRead(obj, member1)
	owner.GrantRead(obj, member2)

	editors := acl.NewGroup("editors")
	editors.Add(member1.Signer.Public())
	editors.Add(member2.Signer.Public())
	if err := p.SetACL(owner.Signer, obj, editors.ToACL(acl.PrivWrite), 2); err != nil {
		t.Fatal(err)
	}
	s1 := member1.NewSession(ACID)
	if _, err := s1.Append(obj, []byte("m1;")); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)

	// Remove member2 and re-certify: their writes stop landing.
	editors.Remove(member2.Signer.Public())
	if err := p.SetACL(owner.Signer, obj, editors.ToACL(acl.PrivWrite), 3); err != nil {
		t.Fatal(err)
	}
	s2 := member2.NewSession(ACID)
	if _, err := s2.Append(obj, []byte("m2;")); err != nil {
		t.Fatal(err)
	}
	p.Run(30 * time.Second)
	got, _ := owner.NewSession(ACID).Read(obj)
	if string(got) != "doc;m1;" {
		t.Fatalf("after revocation: %q", got)
	}
}

func TestArchiveEveryCadence(t *testing.T) {
	cfg := DefaultPoolConfig()
	cfg.Nodes = 24
	cfg.BlockSize = 64
	cfg.Ring.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	cfg.Ring.ArchiveEvery = 2 // snapshot every second commit
	p := NewPool(26, cfg)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("cadence", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(ACID)
	for i := 0; i < 4; i++ {
		if _, err := sess.Append(obj, []byte("y")); err != nil {
			t.Fatal(err)
		}
		p.Run(30 * time.Second)
	}
	ring, _ := p.Ring(obj)
	// 1 initial + commits 2 and 4 = 3 snapshots.
	if len(ring.ArchiveRoots) != 3 {
		t.Fatalf("archive roots = %d, want 3", len(ring.ArchiveRoots))
	}
}

func TestSessionEncryptedSearch(t *testing.T) {
	p := smallPool(27)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	bob := p.NewClient(21, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("mailbox", []byte("bodies are encrypted"))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(ACID)
	if _, err := sess.SetSearchIndex(obj, []string{"urgent", "invoice", "q3"}); err != nil {
		t.Fatal(err)
	}
	p.Run(time.Minute)

	if hit, err := sess.Search(obj, "invoice"); err != nil || !hit {
		t.Fatalf("present word: %v %v", hit, err)
	}
	if hit, err := sess.Search(obj, "party"); err != nil || hit {
		t.Fatalf("absent word: %v %v", hit, err)
	}
	// Search requires the read key (trapdoors are a capability).
	if _, err := bob.NewSession(ACID).Search(obj, "invoice"); err == nil {
		t.Fatal("keyless search accepted")
	}
	// A keyed reader can search too.
	alice.GrantRead(obj, bob)
	if hit, err := bob.NewSession(ACID).Search(obj, "urgent"); err != nil || !hit {
		t.Fatalf("shared search: %v %v", hit, err)
	}
	// Objects without an index report no match.
	other, _ := alice.Create("plain", []byte("x"))
	if hit, err := sess.Search(other, "anything"); err != nil || hit {
		t.Fatalf("indexless search: %v %v", hit, err)
	}
}

func TestFSRename(t *testing.T) {
	p := smallPool(28)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	fs, err := alice.NewFS("rn")
	if err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(fs.Mkdir("/a"))
	p.Run(30 * time.Second)
	check(fs.Mkdir("/b"))
	p.Run(30 * time.Second)
	check(fs.WriteFile("/a/f.txt", []byte("payload")))
	p.Run(30 * time.Second)

	// Same-directory rename.
	check(fs.Rename("/a/f.txt", "/a/g.txt"))
	p.Run(30 * time.Second)
	if _, err := fs.ReadFile("/a/f.txt"); err == nil {
		t.Fatal("old name still bound")
	}
	got, err := fs.ReadFile("/a/g.txt")
	if err != nil || string(got) != "payload" {
		t.Fatalf("renamed read %q err %v", got, err)
	}
	// Cross-directory rename.
	check(fs.Rename("/a/g.txt", "/b/h.txt"))
	p.Run(30 * time.Second)
	got, err = fs.ReadFile("/b/h.txt")
	if err != nil || string(got) != "payload" {
		t.Fatalf("cross-dir read %q err %v", got, err)
	}
	if names, _ := fs.ReadDir("/a"); len(names) != 0 {
		t.Fatalf("/a not empty: %v", names)
	}
	// Errors: missing source, existing destination.
	if err := fs.Rename("/a/missing", "/b/x"); err == nil {
		t.Fatal("missing source renamed")
	}
	check(fs.WriteFile("/b/other.txt", []byte("x")))
	p.Run(30 * time.Second)
	if err := fs.Rename("/b/other.txt", "/b/h.txt"); err == nil {
		t.Fatal("rename over existing accepted")
	}
}

func TestSessionWatch(t *testing.T) {
	p := smallPool(29)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	bob := p.NewClient(21, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("watched", []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	alice.GrantRead(obj, bob)
	p.SetACL(alice.Signer, obj, &acl.ACL{Entries: []acl.Entry{
		{PubKey: bob.Signer.Public(), Priv: acl.PrivWrite},
	}}, 2)

	// Alice watches; BOB writes; alice's callback fires.
	events := 0
	watcher := alice.NewSession(ACID)
	if err := watcher.Watch(obj, func(update.UpdateID) { events++ }); err != nil {
		t.Fatal(err)
	}
	bs := bob.NewSession(ACID)
	if _, err := bs.Append(obj, []byte("new mail")); err != nil {
		t.Fatal(err)
	}
	p.Run(time.Minute)
	if events != 1 {
		t.Fatalf("watch fired %d times, want 1", events)
	}
	// Aborted updates do not fire the watch.
	ed, _, _ := bs.Editor(obj)
	stale := update.NewVersionGuarded(obj, 999, update.BlockOps(ed.Append([]byte("x"))))
	bs.Submit(stale)
	p.Run(time.Minute)
	if events != 1 {
		t.Fatalf("watch fired on abort: %d", events)
	}
	// Unknown objects are rejected.
	if err := watcher.Watch(guid.FromData([]byte("ghost")), nil); err == nil {
		t.Fatal("watch on unknown object accepted")
	}
}
