package oceanstore

import (
	"testing"
	"time"

	"oceanstore/internal/archive"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 24
	cfg.Ring.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	cfg.BlockSize = 64
	return cfg
}

func TestPublicAPIQuickstart(t *testing.T) {
	world := NewWorld(42, testConfig())
	alice := world.NewClient("alice")
	doc, err := alice.Create("notes", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	sess := alice.NewSession(ACID)
	if _, err := sess.Append(doc, []byte(" world")); err != nil {
		t.Fatal(err)
	}
	world.Run(30 * time.Second)
	data, err := sess.Read(doc)
	if err != nil || string(data) != "hello world" {
		t.Fatalf("read %q err %v", data, err)
	}
	if world.Now() == 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() string {
		world := NewWorld(7, testConfig())
		a := world.NewClient("a")
		doc, err := a.Create("d", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		s := a.NewSession(ACID)
		s.Append(doc, []byte("y"))
		world.Run(time.Minute)
		got, _ := s.Read(doc)
		return string(got) + world.Now().String()
	}
	if run() != run() {
		t.Fatal("same seed produced different results")
	}
}

func TestSharingAcrossClients(t *testing.T) {
	world := NewWorld(3, testConfig())
	alice := world.NewClient("alice")
	bob := world.NewClient("bob")
	doc, err := alice.Create("shared", []byte("a;"))
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.GrantRead(doc, bob); err != nil {
		t.Fatal(err)
	}
	world.SetACL(alice, doc, &ACL{Entries: []ACLEntry{{PubKey: bob.Signer.Public(), Priv: PrivWrite}}}, 2)
	bs := bob.NewSession(ACID)
	if _, err := bs.Append(doc, []byte("b;")); err != nil {
		t.Fatal(err)
	}
	world.Run(time.Minute)
	got, err := alice.NewSession(ACID).Read(doc)
	if err != nil || string(got) != "a;b;" {
		t.Fatalf("shared read %q err %v", got, err)
	}
}

func TestReplicaPlacementAndLocation(t *testing.T) {
	world := NewWorld(4, testConfig())
	alice := world.NewClient("alice")
	doc, err := alice.Create("doc", []byte("z"))
	if err != nil {
		t.Fatal(err)
	}
	if err := world.AddReplica(doc, 5); err != nil {
		t.Fatal(err)
	}
	holder, err := world.Locate(6, doc)
	if err != nil || holder < 0 {
		t.Fatalf("locate: %d %v", holder, err)
	}
	if err := world.Pool.RemoveReplica(doc, 5); err != nil {
		t.Fatal(err)
	}
}
