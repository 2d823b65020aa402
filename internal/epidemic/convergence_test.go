package epidemic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/update"
)

// TestConvergenceProperty is the package's Bayou property test: for
// many seeds, scatter updates over replicas in a random interleaving —
// tentative deliveries in arbitrary orders to arbitrary subsets,
// commits pushed down a virtual primary's final order to arbitrary
// replicas, random pairwise anti-entropy mixed in — then let
// anti-entropy quiesce and require every replica to agree exactly:
// same committed log, same committed bytes, same tentative bytes, same
// tentative updates in the same order.  It fails if commit ordering,
// the deterministic tentative order, or the anti-entropy prefix
// fast-forward is broken.
func TestConvergenceProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			k := testKey(seed)
			v0 := object.NewObject([]byte("base."), 8, k)

			const nReplicas, nClients, nUpdates = 5, 4, 40
			reps := make([]*Replica, nReplicas)
			for i := range reps {
				reps[i] = New(v0)
			}

			// Build the update population: per-client monotone seqs,
			// random timestamps (ties exercise the client/seq tie-break).
			clients := make([]guid.GUID, nClients)
			seqs := make([]uint64, nClients)
			for i := range clients {
				clients[i] = guid.FromData([]byte(fmt.Sprintf("client-%d", i)))
			}
			updates := make([]*update.Update, nUpdates)
			for i := range updates {
				c := rng.Intn(nClients)
				seqs[c]++
				ts := time.Duration(rng.Intn(50)) * time.Second
				updates[i] = appendUpdate(t, v0, k,
					fmt.Sprintf("u%d.", i), clients[c], seqs[c], ts)
			}

			// The virtual primary serialises a random subset in a random
			// final order; the rest stay tentative forever.
			final := rng.Perm(nUpdates)[:nUpdates/2+rng.Intn(nUpdates/2)]

			// pushCommits models a dissemination-tree push: bring one
			// replica's committed log up to the primary's current prefix.
			committedSoFar := 0
			pushCommits := func(r *Replica) {
				for pos := r.CommittedLen(); pos < committedSoFar; pos++ {
					r.Commit(updates[final[pos]], pos, 0)
				}
			}

			// Random interleaving of deliveries, commit advances, and
			// gossip.
			for ev := 0; ev < 400; ev++ {
				switch rng.Intn(4) {
				case 0, 1: // tentative delivery of a random update
					reps[rng.Intn(nReplicas)].AddTentative(updates[rng.Intn(nUpdates)])
				case 2: // primary commits one more, pushes to the tree root
					// Only replica 0 sits on the dissemination tree here:
					// the others learn the final order through anti-entropy
					// alone, so the committed-prefix fast-forward is
					// load-bearing (removing it fails this test).
					if committedSoFar < len(final) {
						committedSoFar++
					}
					pushCommits(reps[0])
				default: // random pairwise anti-entropy
					a, b := rng.Intn(nReplicas), rng.Intn(nReplicas)
					if a != b {
						AntiEntropy(reps[a], reps[b], 0)
					}
				}
			}
			// Drain: finish the primary's order and make sure every
			// update reached at least one replica.
			committedSoFar = len(final)
			pushCommits(reps[0])
			for _, u := range updates {
				reps[rng.Intn(nReplicas)].AddTentative(u)
			}

			// Quiesce: full anti-entropy sweeps until nothing moves.
			for sweep := 0; ; sweep++ {
				if sweep > 2*nReplicas {
					t.Fatalf("anti-entropy failed to quiesce")
				}
				moved := 0
				for i := 0; i < nReplicas; i++ {
					for j := i + 1; j < nReplicas; j++ {
						moved += AntiEntropy(reps[i], reps[j], 0)
					}
				}
				if moved == 0 {
					break
				}
			}

			// Agreement: committed logs, states, and tentative sets all match.
			ref := reps[0]
			refCommitted := read(t, ref.CommittedState(), k)
			refTentative := read(t, ref.TentativeState(0), k)
			for i, r := range reps[1:] {
				if r.CommittedLen() != len(final) {
					t.Fatalf("replica %d committed %d of %d", i+1, r.CommittedLen(), len(final))
				}
				if got := read(t, r.CommittedState(), k); got != refCommitted {
					t.Fatalf("replica %d committed state diverged:\n%q\n%q", i+1, got, refCommitted)
				}
				if got := read(t, r.TentativeState(0), k); got != refTentative {
					t.Fatalf("replica %d tentative state diverged:\n%q\n%q", i+1, got, refTentative)
				}
				if !r.PrefixOf(ref) || !ref.PrefixOf(r) {
					t.Fatalf("replica %d committed log diverged", i+1)
				}
				if got, want := r.TentativeIDs(nil), ref.TentativeIDs(nil); !slices.Equal(got, want) {
					t.Fatalf("replica %d tentative IDs %v != %v", i+1, got, want)
				}
			}
			// The committed prefix must reflect exactly the primary's
			// final order, independent of delivery interleaving.
			if want := nUpdates - len(final); len(ref.tentative) != want {
				t.Fatalf("tentative residue %d, want %d", len(ref.tentative), want)
			}
		})
	}
}
