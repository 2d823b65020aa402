package fault_test

// Golden trace hashes: the exact event stream of a fixed-seed run,
// hashed, and pinned as a constant.  The hashes were recorded before
// the sim kernel's event queue was rewritten (container/heap of
// pointers -> hand-rolled 4-ary heap of values) and must never change:
// they guard the (time, seq) tie-break that every seeded experiment's
// reproducibility rests on.  If an intentional semantic change to the
// simulation ever alters the stream, re-record the constants and say so
// loudly in the commit message.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"oceanstore/internal/fault"
	"oceanstore/internal/simnet"
)

// traceHash canonically serialises a network trace and hashes it.
func traceHash(events []simnet.TraceEvent) string {
	h := sha256.New()
	var buf [8]byte
	for _, ev := range events {
		binary.BigEndian.PutUint64(buf[:], uint64(ev.Time))
		h.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], uint64(ev.From)<<32|uint64(uint32(ev.To)))
		h.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], uint64(ev.Size))
		h.Write(buf[:])
		h.Write([]byte(ev.Kind))
		h.Write([]byte{0})
		h.Write([]byte(ev.Event))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenChaosTrace is traceHash of the seed-11 DemoChaosPlan run.
// Re-recorded when archival dispersal moved from per-archive domain
// partitioning to the service's incremental member rings (same
// round-robin policy, different — still deterministic — placements,
// hence different traffic).  Re-recorded again when tree pushes began
// to carry their log position: the chaos plan's crashes and drops make
// 11 pushes reach a secondary past a commit it missed, and those now
// wait for anti-entropy instead of being applied on top of the gap.
// Re-recorded when primary tiers became runs of the network's locality
// order (§4.4.3): the object's tier moved to other nodes.
// Re-recorded when tree pushes to secondaries that hold a tentative copy
// became commit notices and a copy to the request's own node began to
// ride it: those messages' sizes moved, the copies' targets are drawn
// before the request is sent (it names them), which moves the chaos
// plan's later random draws, and a copy the plan drops makes its
// holder fetch the update from its tree parent.
// Re-recorded when the asynchronous mesh router and the maintenance tick
// were removed: the run no longer sends router hops, and its seven
// routes' guid.Random draws no longer move the kernel's random stream.
// Verified identical across repeated runs at GOMAXPROCS 1, 2 and 4
// before pinning.
const goldenChaosTrace = "d66dde1c2fee5ad385d5582e9171d45eb2ee9e684c6a77112a932d9be41f670e"

func TestGoldenTraceHash(t *testing.T) {
	var trace []simnet.TraceEvent
	if _, err := chaosRun(11, fault.DemoChaosPlan(harnessNodes), func(ev simnet.TraceEvent) {
		trace = append(trace, ev)
	}); err != nil {
		t.Fatal(err)
	}
	got := traceHash(trace)
	if got != goldenChaosTrace {
		t.Fatalf("fixed-seed trace hash changed:\n got  %s\n want %s\n"+
			"the kernel's (time, seq) event ordering is no longer byte-identical",
			got, goldenChaosTrace)
	}
}
