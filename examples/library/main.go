// Library: the paper's digital-library / scientific-data application
// (§3).  A collection of documents is ingested through the file-system
// facade, erasure-coded into deep archival storage as a side effect of
// commitment, and then survives a simulated regional disaster that
// destroys a whole administrative domain of servers plus every member
// of the object's primary tier.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"oceanstore"
	"oceanstore/internal/archive"
	"oceanstore/internal/object"
	"oceanstore/internal/replica"
	"oceanstore/internal/simnet"
)

func main() {
	cfg := oceanstore.DefaultConfig()
	cfg.Nodes = 96
	world := oceanstore.NewWorld(11, cfg)
	curator := world.NewClient("curator")

	fs, err := curator.NewFS("library")
	check(err)
	check(fs.Mkdir("/physics"))
	world.Run(30 * time.Second)

	// Ingest a small collection.
	docs := []struct{ path, content string }{
		{"/physics/neutrino-run-0042.dat", "event data: 9481 candidate interactions ..."},
		{"/physics/calibration.txt", "detector gains per channel ..."},
		{"/physics/README", "dataset from the south pole array, July 2026"},
	}
	for _, d := range docs {
		check(fs.WriteFile(d.path, []byte(d.content)))
		world.Run(30 * time.Second)
	}
	names, err := fs.ReadDir("/physics")
	check(err)
	fmt.Printf("ingested %d documents: %v\n", len(names), names)

	// Each committed write produced archival fragments automatically.
	target, err := fs.Lookup("/physics/neutrino-run-0042.dat")
	check(err)
	ring, _ := world.Pool.Ring(target)
	if len(ring.ArchiveRoots) == 0 {
		log.Fatal("no archival snapshot was produced")
	}
	root := ring.ArchiveRoots[len(ring.ArchiveRoots)-1]
	fmt.Printf("deep archival snapshot %s: %d live fragments across domains\n",
		root.Short(), world.Pool.Arch.LiveFragments(root))

	// DISASTER: a whole administrative domain — a quarter of all servers,
	// the failure that dispersal across domains is designed for — goes
	// down, and so does every member of the target object's primary tier.
	region := world.Pool.Net.Node(ring.PrimaryAnchor()).Domain()
	downed := 0
	for i := 0; i < cfg.Nodes-1; i++ { // the curator sits on the last node
		nd := world.Pool.Net.Node(simnet.NodeID(i))
		if nd.Domain() == region {
			nd.SetDown(true)
			downed++
		}
	}
	for _, nid := range ring.PrimaryNodes() {
		if nd := world.Pool.Net.Node(nid); !nd.Down() {
			nd.SetDown(true)
			downed++
		}
	}
	fmt.Printf("\ndisaster: %d servers destroyed (domain %d and the object's primary tier)\n", downed, region)
	fmt.Printf("live fragments after disaster: %d (need %d)\n",
		world.Pool.Arch.LiveFragments(root), 8)

	// Reconstruct the document from surviving fragments alone.
	var recovered []byte
	world.Pool.Arch.Retrieve(simnet.NodeID(cfg.Nodes-1), root, 4, 10*time.Second,
		func(d []byte, err error, lat time.Duration) {
			if err != nil {
				log.Fatalf("reconstruction failed: %v", err)
			}
			recovered = d
			fmt.Printf("reconstructed %d bytes from fragments in %v (simulated)\n", len(d), lat)
		})
	world.Run(30 * time.Second)

	v, err := replica.ParseSnapshot(recovered)
	check(err)
	key, ok := curator.Keys.Key(target)
	if !ok {
		log.Fatal("curator lost the key")
	}
	plain, err := object.NewView(v, key).Read()
	check(err)
	fmt.Printf("recovered content: %q\n", plain)
	if string(plain) != docs[0].content {
		log.Fatal("recovered content does not match the original")
	}
	fmt.Println("\nnothing short of a global disaster destroys archived data (§4.5)")

	// Background repair restores the redundancy level: the archival
	// scheduler's first repair tick rebuilds every archive the disaster
	// left at or below 12 live fragments.
	sched := archive.NewScheduler(world.Pool.Arch, archive.SchedulerConfig{
		RepairInterval: time.Minute,
		RepairsPerTick: 64,
		Threshold:      12,
	})
	stop := sched.Start()
	world.Run(time.Minute + time.Second)
	stop()
	st := sched.Stats()
	fmt.Printf("background repair restored %d archives, %d unrecoverable; live fragments now %d\n",
		st.Repairs, st.RepairFailed, world.Pool.Arch.LiveFragments(root))
	if st.RepairFailed != 0 {
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
