// Library: the paper's digital-library / scientific-data application
// (§3).  A collection of documents is ingested through the file-system
// facade, erasure-coded into deep archival storage as a side effect of
// commitment, cited through version-qualified names and served to
// browsers by the read-only web gateway, and then survives a simulated
// regional disaster that destroys a whole administrative domain of
// servers plus every member of the object's primary tier.  Along the
// way a reader's key is revoked (§4.2) and the catalogue's version
// history is retired to landmarks (§4.5).
//
// Every claim is checked as the story goes; a failed check ends the
// program with a non-zero status.
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"oceanstore"
	"oceanstore/internal/archive"
	"oceanstore/internal/core"
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
	expect(len(names) == len(docs), "the directory lists every ingested document")

	// Catalogue upkeep through the facade: the calibration is corrected
	// in place — a new version; the first stays retrievable — and the
	// README gets a descriptive name.
	cal, err := fs.Lookup("/physics/calibration.txt")
	check(err)
	calRing, _ := world.Pool.Ring(cal)
	firstCal := calRing.CommittedVersion().GUID()
	check(fs.WriteFile("/physics/calibration.txt", []byte("detector gains per channel, corrected ...")))
	world.Run(30 * time.Second)
	check(fs.Rename("/physics/README", "/physics/ABOUT"))
	world.Run(30 * time.Second)
	about, err := fs.ReadFile("/physics/ABOUT")
	check(err)
	fmt.Printf("README renamed to ABOUT: %q\n", about)
	expect(string(about) == docs[2].content, "the renamed document keeps its content")

	// READER REVOCATION (§4.2): readers are whoever holds an object's
	// key.  A visiting reader is given the calibration's key and reads
	// it; then the curator withdraws the key and publishes the next
	// version, which the visitor can no longer read.
	visitor := world.NewClient("visitor")
	check(curator.GrantRead(cal, visitor))
	seen, err := visitor.NewSession(oceanstore.ReadCommitted).Read(cal)
	check(err)
	fmt.Println()
	expect(string(seen) == "detector gains per channel, corrected ...", "the visitor reads the calibration: %q", seen)
	visitor.Keys.Revoke(cal)
	check(fs.WriteFile("/physics/calibration.txt", []byte("detector gains per channel, recalibrated ...")))
	world.Run(30 * time.Second)
	_, err = visitor.NewSession(oceanstore.ReadCommitted).Read(cal)
	expect(err != nil, "after the key is revoked, the visitor cannot read the next version: %v", err)

	// RETIREMENT (§4.5): one more correction, then the active replica's
	// history is retired to landmarks — every second version plus the
	// newest.  Retired versions leave the active replica; their archival
	// fragments persist.
	check(fs.WriteFile("/physics/calibration.txt", []byte("detector gains per channel, final ...")))
	world.Run(30 * time.Second)
	retired := calRing.History().Retire(object.KeepLandmarks{Every: 2, N: 1})
	fmt.Printf("retired %d of the calibration's versions to landmarks\n", retired)

	// Permanent hyperlinks (§4.1, §4.5): a reader who holds the
	// library's root directory resolves paths through the directory
	// objects, and a version suffix — a number or a version GUID — pins
	// the citation to the bytes it cited.  A citation of a retired
	// version no longer resolves on the active replica.
	sess := fs.Session()
	resolver := sess.Resolver()
	resolver.AddRoot("library", fs.Root())
	for _, c := range []struct{ link, want string }{
		{"library:/physics/calibration.txt", "detector gains per channel, final ..."},
		{"library:/physics/calibration.txt@v0", docs[1].content},
		{"library:/physics/calibration.txt@" + firstCal.String(), docs[1].content},
		{"library:/physics/calibration.txt@v2", "detector gains per channel, recalibrated ..."},
		{"library:/physics/calibration.txt@v1", ""},
	} {
		data, err := sess.ResolveAndRead(resolver, c.link)
		if c.want == "" {
			expect(err != nil, "%s -> %v", c.link, err)
			continue
		}
		check(err)
		expect(string(data) == c.want, "%s -> %q", c.link, data)
	}

	// The read-only web gateway (§4.6) serves the same namespace to
	// legacy browsers: directories as listings, ?v=N for old versions,
	// and nothing but GET and HEAD.
	gateway := core.NewGateway(fs)
	for _, c := range []struct {
		req  *http.Request
		want int
	}{
		{httptest.NewRequest(http.MethodGet, "/physics/", nil), http.StatusOK},
		{httptest.NewRequest(http.MethodGet, "/physics/calibration.txt?v=0", nil), http.StatusOK},
		{httptest.NewRequest(http.MethodPut, "/physics/ABOUT", nil), http.StatusMethodNotAllowed},
	} {
		rec := httptest.NewRecorder()
		gateway.ServeHTTP(rec, c.req)
		expect(rec.Code == c.want, "gateway %s %s -> %d %q", c.req.Method, c.req.URL, rec.Code, rec.Body.String())
	}

	// Each committed write produced archival fragments automatically.
	target, err := fs.Lookup("/physics/neutrino-run-0042.dat")
	check(err)
	ring, _ := world.Pool.Ring(target)
	expect(len(ring.ArchiveRoots) > 0, "committing the document produced an archival snapshot")
	root := ring.ArchiveRoots[len(ring.ArchiveRoots)-1]
	fmt.Printf("deep archival snapshot %s: %d live fragments across domains\n",
		root.Short(), world.Pool.Arch.LiveFragments(root))

	// DISASTER: a whole administrative domain — a quarter of all servers,
	// the failure that dispersal across domains is designed for — goes
	// down, and so does every member of the target object's primary tier.
	net := world.Pool.Net
	region := net.Node(ring.PrimaryAnchor()).Domain()
	downed := 0
	for i := 0; i < cfg.Nodes-1; i++ { // the curator sits on the last node
		if id := simnet.NodeID(i); net.Node(id).Domain() == region {
			net.Crash(id)
			downed++
		}
	}
	for _, nid := range ring.PrimaryNodes() {
		if !net.Node(nid).Down() {
			net.Crash(nid)
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
	expect(string(plain) == docs[0].content, "the content rebuilt from surviving fragments is the original")
	fmt.Println("\nnothing short of a global disaster destroys archived data (§4.5)")

	// Background repair restores the redundancy level: the archival
	// scheduler's first repair tick rebuilds every archive the disaster
	// left at or below 12 live fragments.
	sched := archive.NewScheduler(world.Pool.Arch, archive.SchedulerConfig{
		RepairsPerTick: 64,
		Threshold:      12,
	})
	stop := sched.Start()
	world.Run(time.Minute + time.Second)
	stop()
	st := sched.Stats()
	fmt.Printf("background repair restored %d archives, %d unrecoverable; live fragments now %d\n",
		st.Repairs, st.RepairFailed, world.Pool.Arch.LiveFragments(root))
	expect(st.Repairs > 0 && st.RepairFailed == 0, "background repair restored every archive it found damaged")
	fmt.Printf("library: all %d checks passed\n", checks)
}

// checks counts the claims expect has verified.
var checks int

// expect prints a claim the run has just verified, or, when it does not
// hold, ends the program with a non-zero status.
func expect(ok bool, format string, args ...any) {
	claim := fmt.Sprintf(format, args...)
	if !ok {
		log.Fatalf("check failed: %s", claim)
	}
	checks++
	fmt.Println("check:", claim)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
