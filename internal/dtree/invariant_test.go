package dtree

import (
	"fmt"
	"testing"
	"time"

	"oceanstore/internal/fault"
	"oceanstore/internal/simnet"
)

// checkTreeInvariants verifies the structural invariants every
// dissemination tree must preserve at all times:
//
//  1. loop freedom — every member's parent chain reaches the root in
//     at most Len() hops;
//  2. parent/child symmetry — parent pointers and child lists agree,
//     and every parent is itself a member;
//  3. depth consistency — Depth(child) == Depth(parent) + 1;
//  4. the fanout cap holds (the relaxation path in reattach only fires
//     when no uncapped live host exists, which the test world avoids).
func checkTreeInvariants(t *testing.T, tr *Tree, fanout int, when time.Duration) {
	t.Helper()
	for _, id := range tr.Members() {
		mb := tr.m[id]
		if id == tr.root {
			if mb.depth != 0 {
				t.Fatalf("t=%v: root depth %d", when, mb.depth)
			}
			continue
		}
		pm, ok := tr.m[mb.parent]
		if !ok {
			t.Fatalf("t=%v: node %d's parent %d is not a member", when, id, mb.parent)
		}
		found := false
		for _, c := range pm.children {
			if c == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("t=%v: node %d missing from parent %d's child list", when, id, mb.parent)
		}
		if mb.depth != pm.depth+1 {
			t.Fatalf("t=%v: node %d depth %d, parent depth %d", when, id, mb.depth, pm.depth)
		}
		// Loop freedom: walk to the root.
		hops := 0
		for cur := id; cur != tr.root; cur, _ = tr.Parent(cur) {
			hops++
			if hops > len(tr.Members()) {
				t.Fatalf("t=%v: parent chain from %d does not reach the root (cycle)", when, id)
			}
		}
	}
	for _, id := range tr.Members() {
		if n := len(tr.m[id].children); n > fanout {
			t.Fatalf("t=%v: node %d has %d children > fanout %d", when, id, n, fanout)
		}
	}
}

// TestInvariantsUnderTimedChurn drives the tree with the fault
// engine's staggered churn plan — members bounce down and up on a
// schedule while Repair runs periodically — and checks the structural
// invariants after every repair pass, across several seeds.  The root
// is never churned: it is the primary that pushes, and a tree has no
// other root to fail over to.
func TestInvariantsUnderTimedChurn(t *testing.T) {
	const n, fanout = 40, 3
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			k, net, tr := build(t, n, fanout, seed)
			// Churn a third of the membership, staggered so several
			// victims overlap but most of the world stays live.
			var victims []simnet.NodeID
			for i := 1; i <= 13; i++ {
				victims = append(victims, simnet.NodeID(i))
			}
			plan := fault.NewPlan("tree-churn").
				ChurnNodes(victims, 2*time.Second, 3*time.Second, 5*time.Second)
			eng := fault.Install(net, *plan)
			defer eng.Uninstall()

			repairs := 0
			k.Every(time.Second, func() {
				tr.Repair()
				repairs++
				checkTreeInvariants(t, tr, fanout, k.Now())
			})
			k.RunFor(time.Duration(13)*3*time.Second + 20*time.Second)
			if repairs == 0 {
				t.Fatal("repair loop never ran")
			}
			if len(tr.Members()) != n {
				t.Fatalf("membership changed under churn: %d", len(tr.Members()))
			}
			// After the last recovery, one more repair must leave every
			// member attached through live parents only.
			tr.Repair()
			for _, id := range tr.Members() {
				if id == tr.root {
					continue
				}
				p, err := tr.Parent(id)
				if err != nil {
					t.Fatal(err)
				}
				if net.Node(p).Down() {
					t.Fatalf("node %d still parented to down node %d after churn ended", id, p)
				}
			}
		})
	}
}
