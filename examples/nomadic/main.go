// Nomadic data: the paper's promiscuous-caching story (§1.2, §4.7.2).
// A client far from an object's primary tier accesses a cluster of
// related documents.  Introspection watches the access stream, the
// cluster recognizer discovers that the documents belong together, and
// the optimizer floats replicas of the WHOLE cluster onto a server
// next to the client — including documents the client has not touched
// recently (cluster-mate prefetching).  Read latency collapses.  Then
// the edge server's link turns thin (§4.4.4): a write reaches its copy
// as an invalidation, the primary tier serves reads until the copy
// refreshes from its tree parent, and the edge serves them again.
package main

import (
	"fmt"
	"log"
	"time"

	"oceanstore"
	"oceanstore/internal/introspect"
	"oceanstore/internal/simnet"
)

func main() {
	cfg := oceanstore.DefaultConfig()
	cfg.Nodes = 64
	world := oceanstore.NewWorld(13, cfg)
	user := world.NewClient("edge-user")

	// A project: three documents the user always touches together.
	var project []oceanstore.GUID
	for _, name := range []string{"spec.md", "budget.xlsx", "notes.txt"} {
		obj, err := user.Create("project/"+name, []byte("contents of "+name))
		if err != nil {
			log.Fatal(err)
		}
		project = append(project, obj)
	}

	// The edge server: the pool node closest to the user (an airport or
	// café installing a server for better performance, §1.1).
	pool := world.Pool
	edgeServer := simnet.NodeID(4) // skip the 4 primary-tier nodes
	for i := simnet.NodeID(4); i < simnet.NodeID(cfg.Nodes-1); i++ {
		if pool.Net.Latency(user.Node, i) < pool.Net.Latency(user.Node, edgeServer) {
			edgeServer = i
		}
	}

	latencyTo := func(objs []oceanstore.GUID) time.Duration {
		var sum time.Duration
		for _, obj := range objs {
			ring, _ := pool.Ring(obj)
			best := pool.Net.Latency(user.Node, 0) // primary fallback
			for _, sec := range ring.Secondaries() {
				if l := pool.Net.Latency(user.Node, sec.Node); l < best {
					best = l
				}
			}
			sum += best
		}
		return sum / time.Duration(len(objs))
	}
	fmt.Printf("mean read latency before caching: %v\n", latencyTo(project))

	// Introspection observes the user's accesses (Figure 7's observe
	// phase): sessions of project work separated by unrelated activity.
	recognizer := introspect.NewClusterRecognizer(4)
	sess := user.NewSession(oceanstore.MonotonicReads)
	for day := 0; day < 10; day++ {
		for _, obj := range project {
			if _, err := sess.Read(obj); err != nil {
				log.Fatal(err)
			}
			recognizer.Access(obj)
		}
		world.Run(30 * time.Second)
	}

	// Optimize (Figure 7's optimize phase): any clustered object the
	// user touches drags its cluster mates to the edge server.
	clusters := recognizer.Clusters(5)
	fmt.Printf("clusters discovered: %d (first has %d members)\n", len(clusters), len(clusters[0]))
	touched := project[0]
	toFloat := append(recognizer.PrefetchCandidates(touched, 5), touched)
	for _, obj := range toFloat {
		if err := world.AddReplica(obj, int(edgeServer)); err != nil {
			log.Fatal(err)
		}
	}
	world.Run(time.Minute)
	fmt.Printf("floated %d replicas (cluster-mate prefetch) onto edge server %d\n",
		len(toFloat), edgeServer)
	fmt.Printf("mean read latency after caching:  %v\n", latencyTo(project))

	// The data is truly nomadic: reads still satisfy session guarantees
	// wherever the replicas float.
	for _, obj := range project {
		if _, err := sess.Read(obj); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("all reads satisfied through the floated replicas")

	// Bandwidth-aware dissemination (§4.4.4): the edge server sits on a
	// thin link, so the dissemination tree sends it invalidations
	// instead of updates.  A write to a project document leaves the edge
	// copy stale; reads go to the primary tier until the edge copy pulls
	// what it missed from its tree parent.
	pool.Net.Node(edgeServer).SetLowBandwidth(true)
	fmt.Printf("edge server %d marked low-bandwidth\n", edgeServer)
	doc := project[0]
	ring, _ := pool.Ring(doc)
	edge, _ := ring.Secondary(edgeServer)
	if _, err := sess.Append(doc, []byte(", revised on the road")); err != nil {
		log.Fatal(err)
	}
	world.Run(time.Minute)
	if !edge.Stale {
		log.Fatal("the low-bandwidth edge copy was sent the update, not an invalidation")
	}
	fmt.Println("write to project/spec.md committed; the edge copy took an invalidation")
	served := edge.Reads
	data, err := sess.Read(doc)
	if err != nil {
		log.Fatal(err)
	}
	if edge.Reads != served {
		log.Fatal("the stale edge copy served a read")
	}
	fmt.Printf("meanwhile the primary tier serves reads: %q\n", data)
	if err := ring.Refresh(edgeServer, nil); err != nil {
		log.Fatal(err)
	}
	world.Run(10 * time.Second)
	if data, err = sess.Read(doc); err != nil {
		log.Fatal(err)
	}
	if edge.Stale || edge.Reads != served+1 {
		log.Fatal("the refreshed edge copy did not serve the read")
	}
	fmt.Printf("refreshed from its tree parent, the edge copy serves: %q\n", data)
}
