package update

import (
	"math/rand"
	"testing"
	"time"

	"oceanstore/internal/crypt"
	"oceanstore/internal/guid"
	"oceanstore/internal/object"
)

func testKey(seed int64) crypt.BlockKey {
	return crypt.NewBlockKey(rand.New(rand.NewSource(seed)))
}

func TestUnconditionalCommit(t *testing.T) {
	k := testKey(1)
	base := object.NewObject([]byte("AABB"), 2, k)
	ed, _ := object.NewEditor(base, k)
	u := NewUnconditional(guid.FromData([]byte("obj")), BlockOps(ed.Append([]byte("CC"))))
	next, out, err := Apply(u, base, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Committed || out.Guard != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	got, _ := object.NewView(next, k).Read()
	if string(got) != "AABBCC" {
		t.Fatalf("content %q", got)
	}
	if next.Num != base.Num+1 {
		t.Fatal("version did not advance")
	}
}

func TestVersionGuardAbortsOnStaleBase(t *testing.T) {
	k := testKey(2)
	base := object.NewObject([]byte("AABB"), 2, k)
	ed, _ := object.NewEditor(base, k)
	u := NewVersionGuarded(guid.FromData([]byte("obj")), 7 /* wrong */, BlockOps(ed.Append([]byte("CC"))))
	next, out, err := Apply(u, base, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Committed || out.Guard != -1 || next != nil {
		t.Fatalf("stale update committed: %+v", out)
	}
	// Correct assumed version commits.
	u2 := NewVersionGuarded(guid.FromData([]byte("obj")), base.Num, BlockOps(ed.Append([]byte("DD"))))
	_, out2, _ := Apply(u2, base, 5)
	if !out2.Committed {
		t.Fatal("fresh update aborted")
	}
}

func TestFirstTrueGuardWins(t *testing.T) {
	k := testKey(3)
	base := object.NewObject([]byte("AABB"), 2, k)
	// Each guard's actions are alternatives against the SAME assumed
	// base, so each gets its own editor (ops carry absolute physical
	// positions).
	edA, _ := object.NewEditor(base, k)
	edB, _ := object.NewEditor(base, k)
	edC, _ := object.NewEditor(base, k)
	u := &Update{
		Object: guid.FromData([]byte("obj")),
		Guards: []Guard{
			{ // false guard
				Preds:   []Predicate{{Kind: PredCompareVersion, Cmp: CmpEQ, Version: 99}},
				Actions: BlockOps(edA.Append([]byte("XX"))),
			},
			{ // first true guard
				Preds:   []Predicate{{Kind: PredAlways}},
				Actions: BlockOps(edB.Append([]byte("YY"))),
			},
			{ // also true, but must not fire
				Preds:   []Predicate{{Kind: PredAlways}},
				Actions: BlockOps(edC.Append([]byte("ZZ"))),
			},
		},
	}
	next, out, err := Apply(u, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Guard != 1 {
		t.Fatalf("guard %d fired, want 1", out.Guard)
	}
	got, _ := object.NewView(next, k).Read()
	if string(got) != "AABBYY" {
		t.Fatalf("content %q", got)
	}
}

func TestGuardConjunction(t *testing.T) {
	k := testKey(4)
	base := object.NewObject([]byte("AABB"), 2, k)
	ed, _ := object.NewEditor(base, k)
	okPred := Predicate{Kind: PredCompareVersion, Cmp: CmpEQ, Version: 0}
	badPred := Predicate{Kind: PredCompareSize, Cmp: CmpGT, Size: 100}
	u := &Update{Guards: []Guard{{
		Preds:   []Predicate{okPred, badPred},
		Actions: BlockOps(ed.Append([]byte("CC"))),
	}}}
	if _, out, _ := Apply(u, base, 0); out.Committed {
		t.Fatal("conjunction with a false predicate fired")
	}
}

func TestCompareSizePredicate(t *testing.T) {
	k := testKey(5)
	base := object.NewObject([]byte("AABB"), 2, k) // size 4
	cases := []struct {
		cmp  Cmp
		size int64
		want bool
	}{
		{CmpEQ, 4, true}, {CmpEQ, 5, false},
		{CmpNE, 5, true}, {CmpNE, 4, false},
		{CmpLT, 5, true}, {CmpLT, 4, false},
		{CmpLE, 4, true}, {CmpGT, 3, true},
		{CmpGE, 4, true}, {CmpGE, 5, false},
	}
	for _, c := range cases {
		p := Predicate{Kind: PredCompareSize, Cmp: c.cmp, Size: c.size}
		if p.Eval(base) != c.want {
			t.Fatalf("size pred %v %d: got %v", c.cmp, c.size, !c.want)
		}
	}
	// Unknown comparator and kind are false, not true.
	if (Predicate{Kind: PredCompareSize, Cmp: 99, Size: 4}).Eval(base) {
		t.Fatal("unknown cmp evaluated true")
	}
	if (Predicate{Kind: 99}).Eval(base) {
		t.Fatal("unknown predicate evaluated true")
	}
}

func TestCompareBlockPredicate(t *testing.T) {
	// The atomic-move guard of the email application (§3): move a
	// message only if the source block still holds the expected content.
	k := testKey(6)
	base := object.NewObject([]byte("AABB"), 2, k)
	ed, _ := object.NewEditor(base, k)
	blk, pos, err := ed.ExpectedBlock(1, []byte("BB"))
	if err != nil {
		t.Fatal(err)
	}
	good := Predicate{Kind: PredCompareBlock, Pos: pos, Digest: blk.Digest()}
	if !good.Eval(base) {
		t.Fatal("matching compare-block failed")
	}
	wrongBlk, _, _ := ed.ExpectedBlock(1, []byte("ZZ"))
	bad := Predicate{Kind: PredCompareBlock, Pos: pos, Digest: wrongBlk.Digest()}
	if bad.Eval(base) {
		t.Fatal("non-matching compare-block passed")
	}
	oob := Predicate{Kind: PredCompareBlock, Pos: 99, Digest: blk.Digest()}
	if oob.Eval(base) {
		t.Fatal("out-of-range compare-block passed")
	}
}

func TestSearchPredicate(t *testing.T) {
	k := testKey(7)
	base := object.NewObject([]byte("doc"), 4, k)
	sk := crypt.NewSearchKey(k)
	base.Index = sk.BuildIndex([]string{"urgent", "invoice"})

	match := Predicate{Kind: PredSearch, Trapdoor: sk.Trapdoor("urgent"), WantMatch: true}
	if !match.Eval(base) {
		t.Fatal("search predicate missed present word")
	}
	absent := Predicate{Kind: PredSearch, Trapdoor: sk.Trapdoor("spam"), WantMatch: true}
	if absent.Eval(base) {
		t.Fatal("search predicate matched absent word")
	}
	negated := Predicate{Kind: PredSearch, Trapdoor: sk.Trapdoor("spam"), WantMatch: false}
	if !negated.Eval(base) {
		t.Fatal("negated search failed")
	}
	// No index at all: WantMatch=true fails, WantMatch=false passes.
	noIdx := object.NewObject([]byte("doc"), 4, k)
	if match.Eval(noIdx) {
		t.Fatal("matched with no index")
	}
}

func TestSetIndexAction(t *testing.T) {
	k := testKey(8)
	base := object.NewObject([]byte("doc"), 4, k)
	sk := crypt.NewSearchKey(k)
	idx := sk.BuildIndex([]string{"fresh"})
	u := NewUnconditional(guid.Zero, []Action{{Kind: ActSetIndex, Index: idx}})
	next, out, err := Apply(u, base, 0)
	if err != nil || !out.Committed {
		t.Fatalf("set-index failed: %v %+v", err, out)
	}
	if next.Index != idx {
		t.Fatal("index not installed")
	}
	if len(next.Index.Search(sk.Trapdoor("fresh"))) != 1 {
		t.Fatal("installed index not searchable")
	}
}

// TestSetIndexSignedAndSized: an index-replacing action is charged its
// cells on the wire, and its cells are under the signature.
func TestSetIndexSignedAndSized(t *testing.T) {
	signer := crypt.NewSigner(rand.New(rand.NewSource(13)))
	idx := crypt.NewSearchKey(testKey(13)).BuildIndex([]string{"fresh", "words"})
	bare := NewUnconditional(guid.Zero, []Action{{Kind: ActSetIndex}})
	u := NewUnconditional(guid.Zero, []Action{{Kind: ActSetIndex, Index: idx}})
	if got, want := u.WireSize()-bare.WireSize(), idx.SizeBytes(); got != want {
		t.Fatalf("index adds %d wire bytes, want its %d", got, want)
	}
	u.ClientID = signer.GUID()
	u.Sign(signer)
	if !u.VerifySig() {
		t.Fatal("valid signature rejected")
	}
	idx.Cells[0][0] ^= 1
	if u.VerifySig() {
		t.Fatal("tampered index cell verified")
	}
}

func TestTruncateAction(t *testing.T) {
	k := testKey(9)
	base := object.NewObject([]byte("AABBCC"), 2, k)
	u := NewUnconditional(guid.Zero, []Action{{Kind: ActTruncate}})
	next, out, err := Apply(u, base, 0)
	if err != nil || !out.Committed {
		t.Fatal("truncate failed")
	}
	if next.Size != 0 || len(next.Blocks) != 0 || len(next.Top) != 0 {
		t.Fatalf("truncate left state: %+v", next)
	}
}

func TestMalformedActionAbortsAtomically(t *testing.T) {
	k := testKey(10)
	base := object.NewObject([]byte("AABB"), 2, k)
	ed, _ := object.NewEditor(base, k)
	u := NewUnconditional(guid.Zero, append(
		BlockOps(ed.Append([]byte("CC"))),
		Action{Kind: ActBlockOp, Op: object.Op{Kind: object.OpReplace, Pos: 99, Blocks: []object.Block{{CT: []byte{1}}}}},
	))
	next, out, err := Apply(u, base, 0)
	if err == nil {
		t.Fatal("malformed action did not error")
	}
	if out.Committed || next != nil {
		t.Fatal("malformed action committed")
	}
	// Base untouched.
	got, _ := object.NewView(base, k).Read()
	if string(got) != "AABB" {
		t.Fatalf("base mutated: %q", got)
	}
	if (Action{Kind: 99}).apply(base.Clone(0)) == nil {
		t.Fatal("unknown action applied")
	}
}

func TestSignAndVerify(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	signer := crypt.NewSigner(r)
	k := testKey(11)
	base := object.NewObject([]byte("AABB"), 2, k)
	ed, _ := object.NewEditor(base, k)
	u := NewUnconditional(guid.FromData([]byte("o")), BlockOps(ed.Append([]byte("CC"))))
	u.ClientID = signer.GUID()
	u.Seq = 3
	u.Timestamp = 44 * time.Millisecond
	u.Sign(signer)
	if !u.VerifySig() {
		t.Fatal("valid signature rejected")
	}
	// Any field tamper invalidates.
	u.Seq = 4
	if u.VerifySig() {
		t.Fatal("tampered seq verified")
	}
	u.Seq = 3
	if !u.VerifySig() {
		t.Fatal("restore failed")
	}
	u.Guards[0].Actions[0].Op.Blocks[0].CT[0] ^= 1
	if u.VerifySig() {
		t.Fatal("tampered action block verified")
	}
}

func TestWireSizeScalesWithPayload(t *testing.T) {
	k := testKey(12)
	base := object.NewObject([]byte("AABB"), 2, k)
	small := func(n int) int {
		ed, _ := object.NewEditor(base, k)
		u := NewUnconditional(guid.Zero, BlockOps(ed.Append(make([]byte, n))))
		return u.WireSize()
	}
	if small(10000) <= small(10) {
		t.Fatal("wire size must grow with payload")
	}
	if small(10) < 50 {
		t.Fatal("wire size must include headers")
	}
}

func TestUpdateIDAndLog(t *testing.T) {
	l := &Log{}
	u := &Update{ClientID: guid.FromData([]byte("c")), Seq: 1}
	l.Append(u, Outcome{Committed: true})
	u2 := &Update{ClientID: u.ClientID, Seq: 2}
	if u.ID() == u2.ID() {
		t.Fatal("distinct updates share an ID")
	}
	l.Append(u2, Outcome{Committed: false, Guard: -1})
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	if got, _ := l.Counts(); got != 1 {
		t.Fatalf("commits = %d", got)
	}
	es := l.Entries()
	if es[0].ID() != u.ID() || es[1].ID() != u2.ID() {
		t.Fatal("entries out of order")
	}
}

func TestACIDShape(t *testing.T) {
	// §4.4.1: ACID semantics = one guard; predicates check the read set,
	// actions apply the write set.  Two transactions race; exactly one
	// commits.
	k := testKey(13)
	base := object.NewObject([]byte("balance=100"), 16, k)

	mkTx := func(newBalance string) *Update {
		ed, _ := object.NewEditor(base, k)
		op, err := ed.Replace(0, []byte(newBalance))
		if err != nil {
			t.Fatal(err)
		}
		return NewVersionGuarded(guid.Zero, base.Num, BlockOps(op))
	}
	tx1 := mkTx("balance=150")
	tx2 := mkTx("balance=050")

	v1, out1, err := Apply(tx1, base, 1)
	if err != nil || !out1.Committed {
		t.Fatal("tx1 aborted")
	}
	_, out2, err := Apply(tx2, v1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Committed {
		t.Fatal("conflicting tx2 committed — lost update")
	}
	got, _ := object.NewView(v1, k).Read()
	if string(got) != "balance=150" {
		t.Fatalf("balance %q", got)
	}
}
