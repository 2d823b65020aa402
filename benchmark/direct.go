package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"oceanstore/internal/archive"
	"oceanstore/internal/blobstore"
	"oceanstore/internal/core"
	"oceanstore/internal/crypt"
	"oceanstore/internal/object"
	"oceanstore/internal/sim"
	"oceanstore/internal/simnet"
	"oceanstore/internal/update"
)

// Leaf libraries run inside message handlers, where the outside-in
// tracer cannot see them.  directCosts prices them instead: it times
// calls of each library's public entry point on inputs shaped like the
// soak's (512 B blocks, 256 B writes, 4-of-8 archives over a world of
// the workload's size and store backend), and the caller multiplies by
// the run's own counts to estimate what the run spent there.  A unit
// cost is the median over directRounds rounds of the round's mean; it
// is host-time and machine-dependent.
func directCosts(m metrics, seed int64, cfg core.SoakConfig, tmpDir string) error {
	const calls = 1000
	rng := rand.New(rand.NewSource(seed))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	// One soak write: replace block 0 of a one-block object.
	key := crypt.NewBlockKey(rng)
	v0 := object.NewObject(make([]byte, cfg.BlockSize), cfg.BlockSize, key)
	ed, err := object.NewEditor(v0, key)
	if err != nil {
		return fmt.Errorf("direct: editor: %w", err)
	}
	op, err := ed.Replace(0, fill(cfg.BlockSize/2))
	if err != nil {
		return fmt.Errorf("direct: replace: %w", err)
	}
	signer := crypt.NewSigner(rng)
	u := update.NewUnconditional(v0.GUID(), update.BlockOps(op))
	u.ClientID, u.Seq = signer.GUID(), 1
	m.set("update.sign_us", perCall(calls, func(int) { u.Sign(signer) }))

	// Sign seeds the verification memo, so verify copies that carry
	// the signature but not the memo: the cost of the first check a
	// tier makes, which the memo then spares its other members.
	cold := make([]*update.Update, directRounds*calls)
	for i := range cold {
		cold[i] = &update.Update{
			Object: u.Object, Guards: u.Guards, ClientID: u.ClientID, Seq: u.Seq,
			Timestamp: u.Timestamp, PubKey: u.PubKey, Sig: u.Sig,
		}
	}
	verified := true
	m.set("update.verify_us", perCall(calls, func(i int) {
		verified = cold[i].VerifySig() && verified
	}))
	if !verified {
		return fmt.Errorf("direct: a freshly signed update failed VerifySig")
	}

	bc := crypt.NewBlockCipher(key)
	plain := fill(cfg.BlockSize)
	m.set("crypt.block_encrypt_us", perCall(calls, func(i int) { bc.EncryptBlock(uint64(i), plain) }))

	// A one-block version snapshot is the block plus ~90 B of header.
	acfg := archive.Config{DataShards: 4, TotalFragments: 8}
	snaps := make([][]byte, directRounds*calls)
	for i := range snaps {
		snaps[i] = fill(cfg.BlockSize + 90)
	}
	var frags []archive.StoredFragment
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	m.set("archive.encode_us", perCall(calls, func(i int) {
		_, fs, err := archive.Encode(snaps[i], acfg)
		note(err)
		frags = append(frags, fs...)
	}))

	// The whole commit-time hook — encode, place, store eight
	// fragments — on a service as wide as the workload's world, over
	// the workload's store backend.  One untimed pass first, so on disk
	// the volumes exist as they do in the steady state of a run.
	net := simnet.New(sim.NewKernel(seed), simnet.Config{})
	svc := archive.NewService(net, net.AddRandomNodes(cfg.Nodes, cfg.Extent, cfg.Domains))
	svc.SyncEachBatch = false // syncs are priced below, per Sync
	if cfg.Backend == "disk" {
		dir := filepath.Join(tmpDir, "direct-vols")
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		svc.SetStoreFactory(func(id simnet.NodeID) archive.Store {
			st, err := blobstore.Open(blobstore.Config{Path: filepath.Join(dir, fmt.Sprintf("vol-%06d.log", id))})
			if err != nil {
				panic(fmt.Sprintf("direct: open volume: %v", err))
			}
			return st
		})
	}
	hook := func(i int) {
		_, err := svc.Archive(snaps[i], acfg, nil)
		note(err)
	}
	for i := 0; i < calls; i++ {
		hook(i)
	}
	m.set("archive.archive_us", perCall(calls, hook))
	note(svc.CloseStores())

	// Blobstore alone, on a scratch volume: append, read back, fsync.
	st, err := blobstore.Open(blobstore.Config{Path: filepath.Join(tmpDir, "direct.log")})
	if err != nil {
		return fmt.Errorf("direct: %w", err)
	}
	m.set("blobstore.put_us", perCall(calls, func(i int) { note(st.Put(frags[i])) }))
	m.set("blobstore.get_us", perCall(calls, func(i int) {
		if _, ok := st.Get(frags[i].Root, frags[i].Index); !ok {
			note(fmt.Errorf("fragment %d missing after Put", i))
		}
	}))
	// Each Sync gets one fresh Put to flush; only the Sync is timed.
	const syncs = 50
	var syncing []float64
	for i := 0; i < syncs; i++ {
		note(st.Put(frags[i]))
		t0 := time.Now()
		note(st.Sync())
		syncing = append(syncing, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m.set("blobstore.sync_us", median(syncing))
	note(st.Close())
	if failed != nil {
		return fmt.Errorf("direct: %w", failed)
	}
	return nil
}

// directRounds is how many rounds of calls each unit cost is the
// median of.
const directRounds = 3

// perCall times directRounds rounds of n calls each — fn sees a fresh
// index on every call — and returns the median round's mean call, in
// microseconds.
func perCall(n int, fn func(i int)) float64 {
	rounds := make([]float64, directRounds)
	for r := range rounds {
		t0 := time.Now()
		for i := r * n; i < (r+1)*n; i++ {
			fn(i)
		}
		rounds[r] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	}
	sort.Float64s(rounds)
	return rounds[directRounds/2]
}
