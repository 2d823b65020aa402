package core

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/replica"
	"oceanstore/internal/simnet"
)

// TestEligibleSecondaries pins the one eligibility filter every read
// path selects from.  The ring holds one stale, one down, one
// behind-the-floor and two acceptable secondaries; under each guarantee
// combination the repo's callers use, the iterator must yield exactly
// what the written-out loop the three read paths used to carry yields,
// pickReplica must take the nearest of that set and readCandidates must
// list it latency-ordered ahead of the live primaries.
func TestEligibleSecondaries(t *testing.T) {
	p := smallPool(77)
	alice := p.NewClient(20, crypt.NewSigner(p.K.Rand()))
	obj, err := alice.Create("eligible", []byte("v0;"))
	if err != nil {
		t.Fatal(err)
	}
	const stale, down, behind, okA, okB = 8, 9, 10, 11, 12
	for _, n := range []simnet.NodeID{stale, down, behind, okA, okB} {
		if err := p.AddReplica(obj, n); err != nil {
			t.Fatal(err)
		}
	}
	p.Run(time.Minute)
	ring, _ := p.Ring(obj)

	cases := []struct {
		name string
		g    Guarantees
		want []simnet.NodeID
	}{
		{"none", 0, []simnet.NodeID{behind, okA, okB}},
		{"RYW", ReadYourWrites, []simnet.NodeID{okA, okB}},
		{"RYW|MW", ReadYourWrites | MonotonicWrites, []simnet.NodeID{okA, okB}},
		{"MR", MonotonicReads, []simnet.NodeID{okA, okB}},
		{"MW", MonotonicWrites, []simnet.NodeID{behind, okA, okB}},
		{"RYW|MR", ReadYourWrites | MonotonicReads, []simnet.NodeID{okA, okB}},
		{"RC", ReadCommitted, nil},
		{"MW|RC", MonotonicWrites | ReadCommitted, nil},
		{"RYW|MR|RC", ReadYourWrites | MonotonicReads | ReadCommitted, nil},
		{"ACID", ACID, nil},
	}

	// Two secondaries miss every write below; one of them comes back
	// before the reads, live but behind each session's floor.
	p.Net.Node(down).SetDown(true)
	p.Net.Node(behind).SetDown(true)
	sessions := make([]*Session, len(cases))
	for i, tc := range cases {
		s := alice.NewSession(tc.g)
		if _, err := s.Append(obj, []byte(tc.name+";")); err != nil {
			t.Fatal(err)
		}
		p.Run(30 * time.Second)
		// A read after the commit raises the MonotonicReads floor.
		if _, err := s.Read(obj); err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	p.Net.Node(behind).SetDown(false)
	if sec, _ := ring.Secondary(stale); sec != nil {
		sec.Stale = true
	}
	if sec, _ := ring.Secondary(behind); sec.Rep.CommittedLen() >= ring.PrimaryState().CommittedLen() {
		t.Fatal("setup: the revived secondary is not behind the primary tier")
	}

	for i, tc := range cases {
		s := sessions[i]
		// The loop pickReplica, readCandidates and modeledRead each
		// carried before they shared one.
		var ref []simnet.NodeID
		if s.g&ReadCommitted == 0 {
			floor := s.readFloor(obj)
			for _, sec := range ring.Secondaries() {
				if sec.Stale || p.Net.Node(sec.Node).Down() {
					continue
				}
				if !floor.accepts(sec.Rep) {
					continue
				}
				ref = append(ref, sec.Node)
			}
		}
		var got []simnet.NodeID
		s.eligibleSecondaries(ring, obj, func(sec *replica.Secondary) { got = append(got, sec.Node) })
		if !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: iterator yields %v, old loop %v, want %v", tc.name, got, ref, tc.want)
			continue
		}

		byLatency := append([]simnet.NodeID(nil), got...)
		sort.SliceStable(byLatency, func(a, b int) bool {
			return p.Net.Latency(s.c.Node, byLatency[a]) < p.Net.Latency(s.c.Node, byLatency[b])
		})
		wantRep := ring.PrimaryState()
		if len(byLatency) > 0 {
			sec, _ := ring.Secondary(byLatency[0])
			wantRep = sec.Rep
		}
		if rep, err := s.pickReplica(obj); err != nil || rep != wantRep {
			t.Errorf("%s: pickReplica did not take the nearest eligible replica (err %v)", tc.name, err)
		}
		wantCands := append(byLatency, ring.PrimaryNodes()...)
		if cands, err := s.readCandidates(obj); err != nil || !reflect.DeepEqual(cands, wantCands) {
			t.Errorf("%s: readCandidates = %v (err %v), want %v", tc.name, cands, err, wantCands)
		}
	}
}
