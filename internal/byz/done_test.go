package byz

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"oceanstore/internal/guid"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
)

// TestDoneIndexModel drives a doneIndex with random adds and lookups
// well past doneWindow, across every table growth, and checks each step
// against a Go map of the IDs lookups must find plus a FIFO of every
// entry in add order (every seventh step, the table's invariants too).
// One add in five is a no-op's — a null request or a duplicate of an ID
// held — which takes a ring position and a sequence number but no table
// slot.  Three ID shapes: SHA-1 digests; IDs whose leading bytes all
// name the table's last slot, so every probe run wraps its end and
// every eviction shifts entries across it; and IDs spread over the last
// four home slots, so backward-shift deletion must leave an entry whose
// home lies between the hole and it.
func TestDoneIndexModel(t *testing.T) {
	digest := func(i int) guid.GUID { return guid.FromData([]byte(fmt.Sprint(i))) }
	shapes := map[string]func(i int) guid.GUID{
		"digests":    digest,
		"one home":   func(i int) guid.GUID { return collidingID(^uint64(0), i) },
		"four homes": func(i int) guid.GUID { return collidingID(^uint64(0)-uint64(digest(i)[0]%4), i) },
	}
	type entry struct {
		id      guid.GUID
		indexed bool
	}
	for name, id := range shapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			var d doneIndex
			want := map[guid.GUID]uint64{}
			var fifo []entry
			next, seq := 0, uint64(0)
			for step := 0; step < 6*doneWindow; step++ {
				if c := rng.Intn(15); c >= 5 {
					// Add a fresh ID, or (one add in five) a no-op's.
					e := entry{id(next), true}
					if c < 8 {
						e = entry{guid.Zero, false}
						if dup := fifo[rng.Intn(len(fifo)+1):]; len(dup) > 0 && dup[0].indexed {
							e.id = dup[0].id
						}
					} else {
						next++
					}
					old, evicted := d.add(e.id, seq, e.indexed)
					if e.indexed {
						want[e.id] = seq
					}
					fifo = append(fifo, e)
					seq++
					if len(fifo) > doneWindow {
						o := fifo[0]
						if evicted != o.indexed || evicted && old != o.id {
							t.Fatalf("step %d: add evicted %v (%v), want the oldest %v (%v)", step, old.Short(), evicted, o.id.Short(), o.indexed)
						}
						if o.indexed {
							delete(want, o.id)
						}
						fifo = fifo[1:]
					} else if evicted {
						t.Fatalf("step %d: add evicted %v with %d held", step, old.Short(), len(fifo)-1)
					}
				}
				// Look up one ID ever added, held or evicted, and one never added.
				for _, x := range []guid.GUID{id(rng.Intn(next + 1)), id(next + 1)} {
					v, ok := d.get(x)
					if wv, wok := want[x]; ok != wok || v != wv {
						t.Fatalf("step %d: get(%v) = %d, %v; want %d, %v", step, x.Short(), v, ok, wv, wok)
					}
				}
				// And what ran at one sequence number ever used, or the next.
				s := uint64(rng.Int63n(int64(seq) + 1))
				x, ok := d.at(s)
				first := seq - uint64(len(fifo))
				if wok := s >= first && s < seq; ok != wok || ok && x != fifo[s-first].id {
					t.Fatalf("step %d: at(%d) = %v, %v; want it held %v", step, s, x.Short(), ok, wok)
				}
				if step%7 == 0 {
					checkDoneIndex(t, &d, want, len(fifo))
				}
			}
			checkDoneIndex(t, &d, want, len(fifo))
		})
	}
}

// collidingID is an ID whose leading eight bytes are lead, and so whose
// home slot is lead masked to the table, with i in its tail.
func collidingID(lead uint64, i int) guid.GUID {
	var id guid.GUID
	binary.BigEndian.PutUint64(id[:8], lead)
	binary.BigEndian.PutUint64(id[8:16], uint64(i))
	return id
}

// checkDoneIndex checks d's invariants against the model: its ring
// holds ring entries, and its table exactly want's IDs, each in one
// slot, reachable from its home slot without crossing an empty one, in
// a table a power of two at least twice the ring's length.
func checkDoneIndex(t *testing.T, d *doneIndex, want map[guid.GUID]uint64, ring int) {
	t.Helper()
	if len(d.ids) != ring {
		t.Fatalf("holds %d entries, want %d", len(d.ids), ring)
	}
	n := len(d.slots)
	if n&(n-1) != 0 || n < 2*len(d.ids) {
		t.Fatalf("table of %d slots for %d IDs", n, len(d.ids))
	}
	used := 0
	for i, p := range d.slots {
		if p == 0 {
			continue
		}
		used++
		x := d.ids[p-1]
		if v, ok := want[x]; !ok || d.seqs[p-1] != v {
			t.Fatalf("slot %d holds %v, which the model does not", i, x.Short())
		}
		for j := doneHome(x, n-1); j != i; j = (j + 1) & (n - 1) {
			if d.slots[j] == 0 {
				t.Fatalf("slot %d's ID is cut off from its home %d by the empty slot %d", i, doneHome(x, n-1), j)
			}
		}
	}
	if used != len(want) {
		t.Fatalf("%d slots in use for %d IDs", used, len(want))
	}
}

// TestHeapPerTierMember pins what a tier member retains per executed
// request: its done index's ID, sequence number and table slots.
// Records, slots and timers retire at execution, and the client side
// keeps nothing once a request resolves, so nothing else grows.  The
// difference between tiers that executed doneWindow/2 and doneWindow
// requests is ≈ 34.5 B an ID (≈ 43 B while the tier also kept a done
// index of its clients' requests); the bound is that plus 25 %.
func TestHeapPerTierMember(t *testing.T) {
	const tiers, batch, bound = 40, 32, 34.5 * 1.25
	live := func(executed int) int64 {
		k := sim.NewKernel(7)
		net := simnet.New(k, simnet.Config{BaseLatency: 100 * time.Millisecond})
		groups := make([]*Group, tiers)
		clients := make([]simnet.NodeID, tiers)
		for i := range groups {
			var nodes []simnet.NodeID
			for j := 0; j < 4; j++ {
				nodes = append(nodes, net.AddNode(0, 0).ID)
			}
			clients[i] = net.AddNode(0, 0).ID
			g, err := NewGroup(net, nodes, 1, guid.Zero)
			if err != nil {
				t.Fatal(err)
			}
			groups[i] = g
		}
		for n := 0; n < executed; n += batch {
			for i, g := range groups {
				for j := n; j < n+batch; j++ {
					g.Submit(clients[i], req(fmt.Sprintf("t%d-u%d", i, j), 100), nil)
				}
			}
			k.RunFor(time.Second)
		}
		for _, g := range groups {
			for _, r := range g.replicas {
				if len(r.done.ids) != executed {
					t.Fatalf("a member executed %d, want %d", len(r.done.ids), executed)
				}
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(groups)
		return int64(ms.HeapAlloc)
	}
	half, full := live(doneWindow/2), live(doneWindow)
	perID := float64(full-half) / (tiers * 4 * doneWindow / 2)
	t.Logf("live heap %.2f MB at %d executions a tier, %.2f MB at %d: %+.1f B per executed ID per member",
		float64(half)/(1<<20), doneWindow/2, float64(full)/(1<<20), doneWindow, perID)
	if perID > bound {
		t.Fatalf("%+.1f B of live heap per executed ID per member, bound %.0f", perID, bound)
	}
}
