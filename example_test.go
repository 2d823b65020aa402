package oceanstore_test

import (
	"fmt"
	"time"

	"oceanstore"
	"oceanstore/internal/archive"
)

func exampleConfig() oceanstore.Config {
	cfg := oceanstore.DefaultConfig()
	cfg.Nodes = 24
	cfg.BlockSize = 64
	cfg.Ring.Archive = archive.Config{DataShards: 4, TotalFragments: 8}
	return cfg
}

// The minimal OceanStore workflow: create, update, read.
func Example() {
	world := oceanstore.NewWorld(42, exampleConfig())
	alice := world.NewClient("alice")

	doc, _ := alice.Create("notes", []byte("hello"))
	sess := alice.NewSession(oceanstore.ACID)
	sess.Append(doc, []byte(" world"))
	world.Run(time.Minute)

	data, _ := sess.Read(doc)
	fmt.Println(string(data))
	// Output: hello world
}

// Sharing is cryptographic: read access travels as a key, write access
// as an owner-certified ACL entry.
func ExampleWorld_SetACL() {
	world := oceanstore.NewWorld(7, exampleConfig())
	alice := world.NewClient("alice")
	bob := world.NewClient("bob")

	doc, _ := alice.Create("shared", []byte("a"))
	alice.GrantRead(doc, bob)
	world.SetACL(alice, doc, &oceanstore.ACL{Entries: []oceanstore.ACLEntry{
		{PubKey: bob.Signer.Public(), Priv: oceanstore.PrivWrite},
	}}, 2)

	bob.NewSession(oceanstore.ACID).Append(doc, []byte("b"))
	world.Run(time.Minute)

	data, _ := alice.NewSession(oceanstore.ACID).Read(doc)
	fmt.Println(string(data))
	// Output: ab
}

// Transactions map onto the paper's ACID-shaped updates: the guard
// checks the read set, the actions apply the write set, and a losing
// racer aborts instead of clobbering.
func ExampleSession_Begin() {
	world := oceanstore.NewWorld(9, exampleConfig())
	alice := world.NewClient("alice")
	acct, _ := alice.Create("acct", []byte("deposits:"))
	sess := alice.NewSession(oceanstore.ACID)

	tx1, _ := sess.Begin(acct)
	tx2, _ := sess.Begin(acct)
	tx1.Append([]byte(" +50"))
	tx2.Append([]byte(" +70"))
	tx1.Commit()
	tx2.Commit()
	world.Run(2 * time.Minute)

	fmt.Println("tx1 committed:", tx1.Status() == oceanstore.TxCommitted)
	fmt.Println("tx2 aborted:  ", tx2.Status() == oceanstore.TxAborted)
	data, _ := sess.Read(acct)
	fmt.Println(string(data))
	// Output:
	// tx1 committed: true
	// tx2 aborted:   true
	// deposits: +50
}
