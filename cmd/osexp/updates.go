package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/byz"
	"oceanstore/internal/core"
	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

// runCiphertext prints E8: the Figure 4 operations on ciphertext plus
// the predicate set, with sizes, all without the server ever holding a
// key.
func runCiphertext(w io.Writer, seed int64, _ *obsink) {
	r := rand.New(rand.NewSource(seed))
	key := crypt.NewBlockKey(r)
	v := object.NewObject([]byte("AABBCC"), 2, key)
	fmt.Fprintf(w, "object: 3 blocks [AA BB CC], encrypted, %d bytes stored\n\n", v.BytesStored())

	show := func(label string, v *object.Version) {
		got, err := object.NewView(v, key).Read()
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "%-28s logical=%-14q physical blocks=%d size=%d\n", label, got, len(v.Blocks), v.Size)
	}
	show("initial", v)

	apply := func(label string, ops []object.Op) {
		nv := v.Clone(0)
		for _, op := range ops {
			if err := nv.ApplyOp(op); err != nil {
				panic(err)
			}
		}
		v = nv
		show(label, v)
	}
	ed, _ := object.NewEditor(v, key)
	ins, _ := ed.InsertBefore(1, []byte("xy"))
	apply("insert-block before BB", ins)

	ed, _ = object.NewEditor(v, key)
	del, _ := ed.Delete(3)
	apply("delete-block CC", []object.Op{del})

	ed, _ = object.NewEditor(v, key)
	apply("append ZZ", []object.Op{ed.Append([]byte("ZZ"))})

	ed, _ = object.NewEditor(v, key)
	rep, _ := ed.Replace(0, []byte("aa"))
	apply("replace-block AA->aa", []object.Op{rep})

	fmt.Fprintln(w, "\n-- server-side predicates (no key) --")
	ed, _ = object.NewEditor(v, key)
	blk, pos, _ := ed.ExpectedBlock(0, []byte("aa"))
	p1 := update.Predicate{Kind: update.PredCompareBlock, Pos: pos, Digest: blk.Digest()}
	fmt.Fprintf(w, "compare-block(0, E(\"aa\"))   -> %v\n", p1.Eval(v))
	blk2, _, _ := ed.ExpectedBlock(0, []byte("ZZ"))
	p2 := update.Predicate{Kind: update.PredCompareBlock, Pos: pos, Digest: blk2.Digest()}
	fmt.Fprintf(w, "compare-block(0, E(\"ZZ\"))   -> %v\n", p2.Eval(v))
	p3 := update.Predicate{Kind: update.PredCompareVersion, Cmp: update.CmpEQ, Version: v.Num}
	fmt.Fprintf(w, "compare-version(= %d)        -> %v\n", v.Num, p3.Eval(v))
	p4 := update.Predicate{Kind: update.PredCompareSize, Cmp: update.CmpEQ, Size: v.Size}
	fmt.Fprintf(w, "compare-size(= %d)           -> %v\n", v.Size, p4.Eval(v))

	sk := crypt.NewSearchKey(key)
	v.Index = sk.BuildIndex([]string{"urgent", "invoice", "ocean"})
	p5 := update.Predicate{Kind: update.PredSearch, Trapdoor: sk.Trapdoor("ocean"), WantMatch: true}
	p6 := update.Predicate{Kind: update.PredSearch, Trapdoor: sk.Trapdoor("spam"), WantMatch: true}
	fmt.Fprintf(w, "search(trapdoor \"ocean\")     -> %v\n", p5.Eval(v))
	fmt.Fprintf(w, "search(trapdoor \"spam\")      -> %v\n", p6.Eval(v))
	fmt.Fprintf(w, "\nencrypted word index: %d bytes for 3 words; cells are opaque without a trapdoor\n",
		v.Index.SizeBytes())
	fmt.Fprintln(w, "paper (Fig 4): \"The server learns nothing about the contents of any of the blocks.\"")
}

// runByzFaults prints E9: agreement outcomes with increasing crash and
// lying replica counts in an n=13, f=4 tier.
func runByzFaults(w io.Writer, seed int64, _ *obsink) {
	const n, f = 13, 4
	fmt.Fprintf(w, "tier: n=%d replicas, f=%d tolerated (n = 3f+1)\n\n", n, f)
	fmt.Fprintf(w, "%-10s %-10s %-10s %-10s\n", "crashed", "lying", "committed", "latency")
	for _, tc := range []struct{ crash, lie int }{
		{0, 0}, {2, 0}, {4, 0}, {0, 2}, {0, 4}, {2, 2}, {5, 0}, {0, 5},
	} {
		k, net, g, client := tier(n, f, seed)
		// The tier's members are the network's first n nodes.
		for i := 0; i < tc.crash; i++ {
			net.Crash(simnet.NodeID(1 + i))
		}
		for i := 0; i < tc.lie; i++ {
			g.SetFault(1+tc.crash+i, byz.Lying)
		}
		var lat time.Duration
		committed := false
		g.Submit(client, byz.Request{ID: guid.FromData([]byte(fmt.Sprint(tc))), Payload: "u", Size: 1000},
			func(r byz.Result) { committed, lat = true, r.Latency })
		k.RunFor(time.Minute)
		latStr := "-"
		if committed {
			latStr = lat.String()
		}
		fmt.Fprintf(w, "%-10d %-10d %-10v %-10s\n", tc.crash, tc.lie, committed, latStr)
	}
	fmt.Fprintf(w, "\npaper: protocol assumes no more than m=%d of n=3m+1=%d replicas are faulty;\n", f, n)
	fmt.Fprintln(w, "beyond the bound the tier loses liveness (but the client is never given a wrong result)")
}

// runUpdatePath prints E11: the Figure 5 timeline of one update through
// a pool with 100 secondaries, showing when tentative data appears and
// when the commit reaches everyone.
func runUpdatePath(w io.Writer, seed int64, ob *obsink) {
	cfg := core.DefaultPoolConfig()
	cfg.Nodes = 128
	cfg.Ring.Archive = archive.Config{DataShards: 8, TotalFragments: 16}
	cfg.Ring.GossipInterval = 500 * time.Millisecond
	p := core.NewPool(seed, cfg)
	p.Instrument(ob.registry(), ob.tracer())
	client := p.NewClient(127, crypt.NewSigner(p.K.Rand()))
	client.Spread = 4
	obj, err := client.Create("timeline", []byte(""))
	if err != nil {
		panic(err)
	}
	ring, _ := p.Ring(obj)
	for i := 4; i < 104; i++ {
		if err := p.AddReplica(obj, simnet.NodeID(i)); err != nil {
			panic(err)
		}
	}
	sess := client.NewSession(0)
	start := p.K.Now()
	var commitAt time.Duration
	sess.OnCommit(func(guid.GUID, update.UpdateID) { commitAt = p.K.Now() - start })
	if _, err := sess.Append(obj, []byte("payload")); err != nil {
		panic(err)
	}

	id := update.UpdateID{Client: client.Signer.GUID(), Seq: 1}
	fmt.Fprintf(w, "pool: 128 nodes, 4 primaries, 100 secondaries, gossip every 500ms\n\n")
	fmt.Fprintf(w, "%-10s %-22s %-22s\n", "t(ms)", "secondaries tentative", "secondaries committed")
	for _, at := range []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
		500 * time.Millisecond, time.Second, 2 * time.Second, 5 * time.Second, 15 * time.Second,
	} {
		p.K.RunUntil(start + at)
		tent, comm := 0, 0
		for _, sec := range ring.Secondaries() {
			if sec.Rep.Seen(id) {
				tent++
			}
			if sec.Rep.CommittedLen() > 0 {
				comm++
			}
		}
		fmt.Fprintf(w, "%-10d %3d/100 %18s %3d/100\n", at.Milliseconds(), tent, "", comm)
	}
	fmt.Fprintf(w, "\nclient observed commit after %v\n", commitAt)
	fmt.Fprintf(w, "archival snapshots generated at commit: %d (deep archival coupling, §4.4.4)\n", len(ring.ArchiveRoots))
}
