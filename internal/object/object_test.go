package object

import (
	"bytes"
	"crypto/sha1"
	"math/rand"
	"testing"
	"testing/quick"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
)

func key(seed int64) crypt.BlockKey {
	return crypt.NewBlockKey(rand.New(rand.NewSource(seed)))
}

func TestNewObjectReadBack(t *testing.T) {
	k := key(1)
	payload := []byte("0123456789abcdefghij") // 20 bytes, blockSize 8 -> 3 blocks
	v := NewObject(payload, 8, k)
	if len(v.Blocks) != 3 || len(v.Top) != 3 {
		t.Fatalf("blocks=%d top=%d, want 3", len(v.Blocks), len(v.Top))
	}
	if v.Size != 20 {
		t.Fatalf("size = %d", v.Size)
	}
	got, err := NewView(v, k).Read()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %q, want %q", got, payload)
	}
}

func TestEmptyObject(t *testing.T) {
	k := key(2)
	v := NewObject(nil, 8, k)
	if len(v.Blocks) != 1 {
		t.Fatalf("empty object blocks = %d, want 1", len(v.Blocks))
	}
	got, err := NewView(v, k).Read()
	if err != nil || len(got) != 0 {
		t.Fatalf("read %q err %v", got, err)
	}
}

func TestWrongKeyFailsToParse(t *testing.T) {
	v := NewObject([]byte("secret content here"), 8, key(3))
	_, err := NewView(v, key(4)).Read()
	if err == nil {
		t.Fatal("reading with wrong key should fail to parse blocks")
	}
}

func TestFigure4Insert(t *testing.T) {
	// The paper's example: blocks 41,42,43; insert 41.5 between 41 and 42.
	k := key(5)
	v0 := NewObject([]byte("AABBCC"), 2, k) // blocks: AA BB CC
	ed, err := NewEditor(v0, k)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := ed.InsertBefore(1, []byte("xy")) // before BB
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].Kind != OpAppend || ops[1].Kind != OpReplace {
		t.Fatalf("insert must be append+replace, got %+v", ops)
	}
	v1 := v0.Clone(0)
	for _, op := range ops {
		if err := v1.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	got, err := NewView(v1, k).Read()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "AAxyBBCC" {
		t.Fatalf("after insert: %q, want AAxyBBCC", got)
	}
	if v1.Size != 8 {
		t.Fatalf("size = %d, want 8", v1.Size)
	}
	// The base version is untouched (copy-on-write).
	if base, _ := NewView(v0, k).Read(); string(base) != "AABBCC" {
		t.Fatalf("base mutated: %q", base)
	}
	// Physical layout per Figure 4: two appended blocks, original count 3.
	if len(v1.Blocks) != 5 {
		t.Fatalf("physical blocks = %d, want 5", len(v1.Blocks))
	}
}

func TestFigure4Delete(t *testing.T) {
	k := key(6)
	v0 := NewObject([]byte("AABBCC"), 2, k)
	ed, _ := NewEditor(v0, k)
	op, err := ed.Delete(1)
	if err != nil {
		t.Fatal(err)
	}
	v1 := v0.Clone(0)
	if err := v1.ApplyOp(op); err != nil {
		t.Fatal(err)
	}
	got, _ := NewView(v1, k).Read()
	if string(got) != "AACC" {
		t.Fatalf("after delete: %q, want AACC", got)
	}
	if v1.Size != 4 {
		t.Fatalf("size = %d, want 4", v1.Size)
	}
	// Physical block count unchanged: delete replaces in place.
	if len(v1.Blocks) != len(v0.Blocks) {
		t.Fatal("delete should not append blocks")
	}
}

func TestAppendAndReplace(t *testing.T) {
	k := key(7)
	v0 := NewObject([]byte("AABB"), 2, k)
	ed, _ := NewEditor(v0, k)
	opA := ed.Append([]byte("ZZ"))
	opR, err := ed.Replace(0, []byte("aa"))
	if err != nil {
		t.Fatal(err)
	}
	v1 := v0.Clone(0)
	for _, op := range []Op{opA, opR} {
		if err := v1.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := NewView(v1, k).Read()
	if string(got) != "aaBBZZ" {
		t.Fatalf("got %q, want aaBBZZ", got)
	}
	if v1.Size != 6 {
		t.Fatalf("size = %d", v1.Size)
	}
}

func TestChainedEditsInOneUpdate(t *testing.T) {
	// Several logical edits batched against one assumed base: the editor
	// must track physical positions across ops.
	k := key(8)
	v0 := NewObject([]byte("AABBCC"), 2, k)
	ed, _ := NewEditor(v0, k)
	var ops []Op
	ins, err := ed.InsertBefore(0, []byte("11"))
	if err != nil {
		t.Fatal(err)
	}
	ops = append(ops, ins...)
	ops = append(ops, ed.Append([]byte("99")))
	del, err := ed.Delete(3) // logical: 11 AA BB CC 99 -> delete CC
	if err != nil {
		t.Fatal(err)
	}
	ops = append(ops, del)
	v1 := v0.Clone(0)
	for _, op := range ops {
		if err := v1.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := NewView(v1, k).Read()
	if string(got) != "11AABB99" {
		t.Fatalf("got %q, want 11AABB99", got)
	}
}

func TestNestedInserts(t *testing.T) {
	// Insert repeatedly at the same point: pointer blocks nest.
	k := key(9)
	v := NewObject([]byte("AACC"), 2, k)
	for i := 0; i < 5; i++ {
		ed, err := NewEditor(v, k)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := ed.InsertBefore(1, []byte{byte('0' + i), byte('0' + i)})
		if err != nil {
			t.Fatal(err)
		}
		nv := v.Clone(0)
		for _, op := range ops {
			if err := nv.ApplyOp(op); err != nil {
				t.Fatal(err)
			}
		}
		v = nv
	}
	got, _ := NewView(v, k).Read()
	if string(got) != "AA4433221100CC" {
		t.Fatalf("got %q", got)
	}
}

func TestEditorBoundsChecks(t *testing.T) {
	k := key(10)
	v := NewObject([]byte("AA"), 2, k)
	ed, _ := NewEditor(v, k)
	if _, err := ed.InsertBefore(5, []byte("x")); err == nil {
		t.Fatal("insert out of range accepted")
	}
	if _, err := ed.Delete(-1); err == nil {
		t.Fatal("negative delete accepted")
	}
	if _, err := ed.Replace(1, nil); err == nil {
		t.Fatal("replace out of range accepted")
	}
	if _, _, err := ed.ExpectedBlock(9, nil); err == nil {
		t.Fatal("expected-block out of range accepted")
	}
}

func TestApplyOpValidation(t *testing.T) {
	k := key(11)
	v := NewObject([]byte("AA"), 2, k)
	if err := v.ApplyOp(Op{Kind: OpReplace, Pos: 9, Blocks: []Block{{CT: []byte{1}}}}); err == nil {
		t.Fatal("replace beyond end accepted")
	}
	if err := v.ApplyOp(Op{Kind: OpReplace}); err == nil {
		t.Fatal("replace with no block accepted")
	}
	if err := v.ApplyOp(Op{Kind: OpAppend}); err == nil {
		t.Fatal("append with no blocks accepted")
	}
	if err := v.ApplyOp(Op{Kind: 99}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestVersionGUIDChangesWithContent(t *testing.T) {
	k := key(12)
	v0 := NewObject([]byte("AABB"), 2, k)
	g0 := v0.GUID()
	v1 := v0.Clone(5)
	if v1.GUID() == g0 {
		t.Fatal("clone with bumped num must change GUID")
	}
	if v1.Prev != g0 {
		t.Fatal("clone must chain to parent GUID")
	}
	ed, _ := NewEditor(v0, k)
	op := ed.Append([]byte("CC"))
	v2 := v0.Clone(5)
	if err := v2.ApplyOp(op); err != nil {
		t.Fatal(err)
	}
	if v2.GUID() == v1.GUID() {
		t.Fatal("different contents same GUID")
	}
	if v0.GUID() != g0 {
		t.Fatal("version GUID must be deterministic")
	}
}

func TestCompareBlockDigests(t *testing.T) {
	k := key(13)
	v := NewObject([]byte("AABB"), 2, k)
	ed, _ := NewEditor(v, k)
	blk, pos, err := ed.ExpectedBlock(1, []byte("BB"))
	if err != nil {
		t.Fatal(err)
	}
	serverDigest, err := v.BlockDigest(pos)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Digest() != serverDigest {
		t.Fatal("client and server compare-block digests disagree")
	}
	wrong, _, _ := ed.ExpectedBlock(1, []byte("ZZ"))
	if wrong.Digest() == serverDigest {
		t.Fatal("digest did not distinguish contents")
	}
	if _, err := v.BlockDigest(99); err == nil {
		t.Fatal("digest out of range accepted")
	}
}

func TestQuickRandomEditSequences(t *testing.T) {
	// Property: an arbitrary sequence of random edits applied through
	// ops matches the same edits applied to a plain byte-slice model.
	k := key(14)
	r := rand.New(rand.NewSource(15))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		model := [][]byte{[]byte("aa"), []byte("bb"), []byte("cc")}
		v := NewObject([]byte("aabbcc"), 2, k)
		for step := 0; step < 8; step++ {
			ed, err := NewEditor(v, k)
			if err != nil {
				return false
			}
			var ops []Op
			chunk := []byte{byte('A' + rr.Intn(26)), byte('A' + rr.Intn(26))}
			switch rr.Intn(3) {
			case 0: // append
				ops = append(ops, ed.Append(chunk))
				model = append(model, chunk)
			case 1: // insert
				if len(model) == 0 {
					continue
				}
				i := rr.Intn(len(model))
				is, err := ed.InsertBefore(i, chunk)
				if err != nil {
					return false
				}
				ops = append(ops, is...)
				model = append(model[:i], append([][]byte{chunk}, model[i:]...)...)
			case 2: // delete
				if len(model) == 0 {
					continue
				}
				i := rr.Intn(len(model))
				del, err := ed.Delete(i)
				if err != nil {
					return false
				}
				ops = append(ops, del)
				model = append(model[:i], model[i+1:]...)
			}
			nv := v.Clone(0)
			for _, op := range ops {
				if err := nv.ApplyOp(op); err != nil {
					return false
				}
			}
			v = nv
		}
		var want []byte
		for _, m := range model {
			want = append(want, m...)
		}
		got, err := NewView(v, k).Read()
		if err != nil {
			return false
		}
		if int64(len(want)) != v.Size {
			return false
		}
		return bytes.Equal(got, want)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryAndRetirement(t *testing.T) {
	k := key(16)
	v := NewObject([]byte("v0"), 4, k)
	h := NewHistory(v)
	guids := []struct {
		num uint64
	}{}
	_ = guids
	for i := 0; i < 9; i++ {
		nv := h.Latest().Clone(0)
		ed, _ := NewEditor(h.Latest(), k)
		if err := nv.ApplyOp(ed.Append([]byte{byte('a' + i)})); err != nil {
			t.Fatal(err)
		}
		h.Add(nv)
	}
	if len(h.versions) != 10 {
		t.Fatalf("len = %d", len(h.versions))
	}
	if h.Latest().Num != 9 {
		t.Fatalf("latest num = %d", h.Latest().Num)
	}
	v5, ok := h.ByNum(5)
	if !ok {
		t.Fatal("version 5 missing")
	}
	if got, ok := h.ByGUID(v5.GUID()); !ok || got != v5 {
		t.Fatal("lookup by GUID failed")
	}
	// KeepLandmarks: every 4th plus last 2 => keep 0,4,8,9.
	if d := h.Retire(KeepLandmarks{Every: 4, N: 2}); d != 6 {
		t.Fatalf("landmarks dropped %d, want 6", d)
	}
	if len(h.versions) != 4 {
		t.Fatalf("after landmarks len = %d", len(h.versions))
	}
	// No landmarks and the last one retains only the newest.
	if d := h.Retire(KeepLandmarks{N: 1}); d != 3 {
		t.Fatalf("keeplast dropped %d, want 3", d)
	}
	if h.Latest().Num != 9 {
		t.Fatal("latest lost in retirement")
	}
	if _, ok := h.ByNum(5); ok {
		t.Fatal("retired version still reachable")
	}
}

func TestHistoryRejectsOutOfOrder(t *testing.T) {
	k := key(17)
	v := NewObject([]byte("x"), 4, k)
	h := NewHistory(v)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order add must panic")
		}
	}()
	h.Add(v) // same Num again
}

func TestMalformedBlocksRejected(t *testing.T) {
	if _, _, _, err := decodeBlock(nil); err == nil {
		t.Fatal("empty block parsed")
	}
	if _, _, _, err := decodeBlock([]byte{0x77}); err == nil {
		t.Fatal("unknown kind parsed")
	}
	if _, _, _, err := decodeBlock([]byte{kindPointer, 0, 0}); err == nil {
		t.Fatal("short pointer parsed")
	}
	if _, _, _, err := decodeBlock([]byte{kindPointer, 0, 0, 0, 9}); err == nil {
		t.Fatal("pointer with missing children parsed")
	}
}

// BenchmarkVersionGUID measures the streaming Merkle root over a
// 16-block version — the per-commit identity computation.
func BenchmarkVersionGUID(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	k := crypt.NewBlockKey(r)
	payload := make([]byte, 16*256)
	r.Read(payload)
	v := NewObject(payload, 256, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.guidSet = false // force the root to be recomputed
		_ = v.GUID()
	}
}

// TestBlockDigestStreams: Digest is SHA-1 over the big-endian tag and
// then the ciphertext, as it was when the two were concatenated first,
// and hashes them without copying the ciphertext.
func TestBlockDigestStreams(t *testing.T) {
	b := Block{Tag: 0x0102030405060708, CT: bytes.Repeat([]byte("ciphertext"), 100)}
	if got, want := b.Digest(), guid.GUID(sha1.Sum(append([]byte{1, 2, 3, 4, 5, 6, 7, 8}, b.CT...))); got != want {
		t.Fatalf("digest %s, want %s", got.Short(), want.Short())
	}
	if n := testing.AllocsPerRun(100, func() { b.Digest() }); n != 0 {
		t.Fatalf("Digest allocates %.0f times a call", n)
	}
	if n := testing.AllocsPerRun(100, func() { newTag(1, 2, b.CT) }); n != 0 {
		t.Fatalf("newTag allocates %.0f times a call", n)
	}
}

// TestWireAndStorageSizes: a version stores each block's ciphertext
// plus its 8-byte tag, an op's wire size is its 14-byte header plus 12
// bytes and the ciphertext per block, and two editors salted apart
// append the same content as different ciphertext of the same size.
func TestWireAndStorageSizes(t *testing.T) {
	k := key(7)
	v := NewObject([]byte("0123456789abcdefghij"), 8, k)
	want := 0
	for _, b := range v.Blocks {
		want += 8 + len(b.CT)
	}
	if got := v.BytesStored(); got != want || want <= 20 {
		t.Fatalf("BytesStored = %d, want %d (over the 20 plaintext bytes)", got, want)
	}
	ops := make([]Op, 2)
	for i := range ops {
		ed, err := NewEditor(v, k)
		if err != nil {
			t.Fatal(err)
		}
		ops[i] = ed.WithSalt(uint64(i + 1)).Append([]byte("tail"))
	}
	a, b := ops[0], ops[1]
	if len(a.Blocks) != 1 || a.Blocks[0].Tag == b.Blocks[0].Tag || bytes.Equal(a.Blocks[0].CT, b.Blocks[0].CT) {
		t.Fatal("salted editors appended the same ciphertext")
	}
	if got, want := a.WireSize(), 14+12+len(a.Blocks[0].CT); got != want || b.WireSize() != want {
		t.Fatalf("WireSize = %d and %d, want %d", got, b.WireSize(), want)
	}
	next := v.Clone(0)
	if err := next.ApplyOp(a); err != nil {
		t.Fatal(err)
	}
	if got, want := next.BytesStored(), v.BytesStored()+8+len(a.Blocks[0].CT); got != want {
		t.Fatalf("after the append BytesStored = %d, want %d", got, want)
	}
}
