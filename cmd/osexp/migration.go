package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"oceanstore/internal/introspect"
	"oceanstore/internal/workload"
)

// newRand builds a seeded source for experiments in this file.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// runMigration reproduces §4.7.2's promise: "users will find their
// project files and email folder on a local machine during the work
// day, and waiting for them on their home machines at night."  Two
// weeks of diurnal accesses train the migration detector; we then
// compare access latency when data sits statically at one site versus
// when it migrates ahead of the predicted site, gated by the
// detector's confidence estimate.
func runMigration(w io.Writer, seed int64, _ *obsink) {
	const (
		office, home = 0, 1
		officeLat    = 5 * time.Millisecond  // local LAN when data is here
		homeLat      = 5 * time.Millisecond  // local when at home
		crossLat     = 80 * time.Millisecond // WAN hop when data is remote
	)
	rng := newRand(seed)
	det := introspect.NewMigrationDetector(24*time.Hour, 24)

	// Train on two weeks: 9-17h at the office, evenings at home.
	for _, o := range workload.Diurnal(14, 40, office, home, 9, 17, rng) {
		det.Observe(o.Site, o.At)
	}

	// Evaluate a fresh day of accesses under three policies.
	day := 30 * 24 * time.Hour
	eval := workload.Diurnal(1, 200, office, home, 9, 17, rng)
	latency := func(dataSite, accessSite int) time.Duration {
		if dataSite == accessSite {
			if accessSite == office {
				return officeLat
			}
			return homeLat
		}
		return crossLat
	}
	var staticLat, migrateLat time.Duration
	migrated, confident := 0, 0
	for _, o := range eval {
		at := day + (o.At % (24 * time.Hour))
		// Static policy: data pinned at the office.
		staticLat += latency(office, o.Site)
		// Migration policy: data prefetched to the predicted site when
		// confidence is high; otherwise it stays where it was.
		site := office
		if pred, ok := det.PredictSite(at); ok && det.Confidence(at) > 0.8 {
			site = pred
			confident++
			if pred == home {
				migrated++
			}
		}
		migrateLat += latency(site, o.Site)
	}
	n := time.Duration(len(eval))
	fmt.Fprintf(w, "accesses: %d over one simulated day (office hours 9-17)\n\n", len(eval))
	fmt.Fprintf(w, "%-28s %-16s\n", "policy", "mean access lat")
	fmt.Fprintf(w, "%-28s %-16v\n", "static (pinned at office)", staticLat/n)
	fmt.Fprintf(w, "%-28s %-16v\n", "introspective migration", migrateLat/n)
	fmt.Fprintf(w, "\npredictions made with confidence >0.8: %d/%d (%d pointed home)\n",
		confident, len(eval), migrated)
	fmt.Fprintln(w, "paper (§4.7.2): \"users will find their project files and email folder on a")
	fmt.Fprintln(w, "local machine during the work day, and waiting for them on their home")
	fmt.Fprintln(w, "machines at night\"")
}
