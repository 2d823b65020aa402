// Command oceanstore boots a simulated OceanStore pool, runs a small
// workload through the full stack — self-certifying naming, Byzantine
// commitment, dissemination, deep archival storage, global location —
// and prints what happened.  It is the quickest way to see the system
// move end to end.
//
// Usage:
//
//	oceanstore [seed]
package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"oceanstore"
)

func main() {
	seed := int64(2026)
	if len(os.Args) > 1 {
		s, err := strconv.ParseInt(os.Args[1], 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad seed: %v\n", err)
			os.Exit(2)
		}
		seed = s
	}
	cfg := oceanstore.DefaultConfig()
	world := oceanstore.NewWorld(seed, cfg)
	fmt.Printf("pool: %d nodes, %d domains, f=%d primary tiers, seed %d\n\n",
		cfg.Nodes, cfg.Domains, oceanstore.TierFaults, seed)

	alice := world.NewClient("alice")
	bob := world.NewClient("bob")

	// Create a shared document.
	doc, err := alice.Create("design-notes", []byte("v1: the ocean stores everything.\n"))
	check(err)
	fmt.Printf("alice created object %s (self-certifying GUID of her key + name)\n", doc.Short())

	// Share: read key to bob, write privilege via a re-certified ACL.
	check(alice.GrantRead(doc, bob))
	check(world.SetACL(alice, doc, &oceanstore.ACL{
		Entries: []oceanstore.ACLEntry{{PubKey: bob.Signer.Public(), Priv: oceanstore.PrivWrite}},
	}, 2))
	fmt.Println("alice granted bob the read key and certified him as a writer")

	// Promiscuous caching: float replicas near the edge.
	for _, n := range []int{10, 20, 30} {
		check(world.AddReplica(doc, n))
	}
	fmt.Println("floating replicas created on nodes 10, 20, 30")

	// Both write concurrently.
	as := alice.NewSession(oceanstore.ACID)
	bs := bob.NewSession(oceanstore.ACID)
	_, err = as.Append(doc, []byte("alice: use erasure codes for the archive.\n"))
	check(err)
	_, err = bs.Append(doc, []byte("bob: route updates through the primary tier.\n"))
	check(err)
	fmt.Println("\nalice and bob submitted concurrent updates...")
	world.Run(time.Minute)

	data, err := as.Read(doc)
	check(err)
	fmt.Printf("\ncommitted contents after Byzantine serialisation:\n%s", data)

	// Locate the document from a random corner of the network.
	holder, err := world.Locate(40, doc)
	check(err)
	fmt.Printf("\nnode 40 located a replica on node %d via the Plaxton mesh\n", holder)

	// Show the archival side effect.
	if ring, ok := world.Pool.Ring(doc); ok {
		fmt.Printf("commits produced %d deep-archival snapshots (erasure-coded, self-verifying)\n",
			len(ring.ArchiveRoots))
	}
	st := world.Pool.Net.Stats()
	fmt.Printf("\nsimulated traffic: %d messages, %d bytes across %d protocol kinds\n",
		st.MessagesSent, st.BytesSent, len(st.ByKind))
	fmt.Printf("virtual time elapsed: %v\n", world.Now())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
