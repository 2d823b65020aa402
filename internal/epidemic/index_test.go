package epidemic

import (
	"encoding/binary"
	"maps"
	"math/rand"
	"runtime"
	"testing"

	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/update"
)

// TestLogIndexModel drives one replica's log index with random commits
// at the log end, duplicate commits, lookups, tentative proposals and
// checkpoint joins, well past 2×Window so the log trims many times and
// the table grows from its first size, and checks each step against a
// Go map of the window's IDs kept by the trim rule alone.  Two ID
// shapes: a few clients' sequential updates, and updates whose ID all
// hash to the table's last slot at every size, so every probe run
// wraps the table's end.
func TestLogIndexModel(t *testing.T) {
	// lastHome makes (lead ^ seq) hash to the last of up to 4096 slots.
	lastHome := uint64(0)
	for indexHome(update.UpdateID{Client: leadID(lastHome)}, 4095) != 4095 {
		lastHome++
	}
	shapes := map[string]func(i int) update.UpdateID{
		"clients": func(i int) update.UpdateID {
			return update.UpdateID{Client: guid.FromData([]byte{byte(i % 5)}), Seq: uint64(i)}
		},
		"one home": func(i int) update.UpdateID {
			return update.UpdateID{Client: leadID(lastHome ^ uint64(i)), Seq: uint64(i)}
		},
	}
	v0 := object.NewObject(nil, 8, testKey(5))
	for name, id := range shapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			mk := func(i int) *update.Update {
				u := update.NewUnconditional(guid.Zero, nil)
				u.ClientID, u.Seq = id(i).Client, id(i).Seq
				return u
			}
			r := New(v0)
			start, want := 0, map[update.UpdateID]int{} // the model window
			var order []*update.Update
			next := 0 // IDs below next have been committed or proposed
			for step := 0; step < 8*Window; step++ {
				switch op := rng.Intn(10); {
				case op < 6: // the next commit at the log end
					u := mk(next)
					next++
					if out := r.Commit(u, len(order), 0); !out.Committed {
						t.Fatalf("step %d: commit %d aborted", step, len(order))
					}
					want[u.ID()] = len(order)
					order = append(order, u)
					if len(order)-start == 2*Window {
						for ; start < len(order)-Window; start++ {
							delete(want, order[start].ID())
						}
					}
				case op < 7: // a windowed update again, at its position or the end
					if len(want) > 0 {
						pos := start + rng.Intn(len(order)-start)
						if rng.Intn(2) == 0 {
							r.Commit(order[pos], pos, 0)
						} else {
							r.Commit(order[pos], len(order), 0)
						}
					}
				case op < 8: // a proposal: fresh, or of a windowed update
					if rng.Intn(2) == 0 {
						r.AddTentative(mk(next))
						next++
					} else if len(want) > 0 && r.AddTentative(order[start+rng.Intn(len(order)-start)]) {
						t.Fatalf("step %d: a logged update was taken as tentative", step)
					}
				case op < 9: // the replica is replaced by a checkpoint join
					r = NewAt(r.Checkpoint())
				}
				if r.CommittedLen() != len(order) || r.Log.Start() != start {
					t.Fatalf("step %d: window [%d,%d), model [%d,%d)", step, r.Log.Start(), r.CommittedLen(), start, len(order))
				}
				for _, x := range []update.UpdateID{id(rng.Intn(next + 1)), id(next + 1)} {
					at, ok := r.logged(x)
					if wat, wok := want[x]; ok != wok || at != wat {
						t.Fatalf("step %d: logged(%v) = %d, %v; want %d, %v", step, x, at, ok, wat, wok)
					}
				}
				if step%7 == 0 {
					logged := known(t, r)
					maps.DeleteFunc(logged, func(_ update.UpdateID, pos int) bool { return pos == tentativeMark })
					if !maps.Equal(logged, want) {
						t.Fatalf("step %d: the index holds %d IDs, the window %d", step, len(logged), len(want))
					}
					if n := len(r.index); n&(n-1) != 0 || n < 2*len(want) {
						t.Fatalf("step %d: table of %d slots for %d entries", step, n, len(want))
					}
				}
			}
			if start == 0 {
				t.Fatal("the log never trimmed")
			}
		})
	}
}

// leadID is a client ID whose leading eight bytes are lead.
func leadID(lead uint64) guid.GUID {
	var id guid.GUID
	binary.BigEndian.PutUint64(id[:8], lead)
	return id
}

// TestHeapPerLoggedCommit pins what a replica retains per commit in
// its window: the 16-byte log entry and 2–4 bytes of index (the update
// itself is shared with every other replica and the tier).  The
// difference between replicas that logged Window/2 and Window commits
// is ≈ 24 B a commit.
func TestHeapPerLoggedCommit(t *testing.T) {
	const replicas, bound = 2000, 30
	v0 := object.NewObject(nil, 8, testKey(5))
	us := make([]*update.Update, Window)
	for i := range us {
		us[i] = update.NewUnconditional(guid.Zero, nil)
		us[i].ClientID = guid.FromData([]byte{byte(i % 8)})
		us[i].Seq = uint64(i/8 + 1)
	}
	live := func(commits int) int64 {
		reps := make([]*Replica, replicas)
		for r := range reps {
			reps[r] = New(v0)
			for pos, u := range us[:commits] {
				reps[r].Commit(u, pos, 0)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(reps)
		return int64(ms.HeapAlloc)
	}
	half, full := live(Window/2), live(Window)
	perCommit := float64(full-half) / (replicas * Window / 2)
	t.Logf("live heap %.2f MB at %d commits a replica, %.2f MB at %d: %+.1f B per logged commit",
		float64(half)/(1<<20), Window/2, float64(full)/(1<<20), Window, perCommit)
	if perCommit > bound {
		t.Fatalf("%+.1f B of live heap per logged commit, bound %d", perCommit, bound)
	}
}
