package introspect

import (
	"math"
	"math/rand"
	"testing"

	"oceanstore/internal/guid"
)

func ev(name string, kv ...any) Event {
	e := Event{Name: name, Fields: map[string]float64{}}
	for i := 0; i+1 < len(kv); i += 2 {
		e.Fields[kv[i].(string)] = kv[i+1].(float64)
	}
	return e
}

func TestDSLArithmeticAndComparison(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"(+ 1 2 3)", 6},
		{"(- 10 4)", 6},
		{"(* 2 3 4)", 24},
		{"(/ 10 4)", 2.5},
		{"(/ 1 0)", 0}, // guarded division
		{"(> 3 2)", 1},
		{"(< 3 2)", 0},
		{"(>= 2 2)", 1},
		{"(<= 2 3)", 1},
		{"(= 5 5)", 1},
		{"(and 1 1 1)", 1},
		{"(and 1 0)", 0},
		{"(or 0 0 1)", 1},
		{"(not 0)", 1},
	}
	for _, c := range cases {
		p, err := Compile(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got := p.NewInstance().Feed(ev("x")); got != c.want {
			t.Fatalf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestDSLFieldAccess(t *testing.T) {
	p := MustCompile("(* load 2)")
	got := p.NewInstance().Feed(ev("access", "load", 21.0))
	if got != 42 {
		t.Fatalf("field access = %v", got)
	}
	// Missing fields read as zero.
	if MustCompile("(+ missing 1)").NewInstance().Feed(ev("x")) != 1 {
		t.Fatal("missing field not zero")
	}
}

func TestDSLEWMA(t *testing.T) {
	p := MustCompile("(ewma load 0.5)")
	in := p.NewInstance()
	if got := in.Feed(ev("a", "load", 10.0)); got != 10 {
		t.Fatalf("first ewma = %v", got)
	}
	if got := in.Feed(ev("a", "load", 20.0)); got != 15 {
		t.Fatalf("second ewma = %v", got)
	}
	if got := in.Feed(ev("a", "load", 15.0)); got != 15 {
		t.Fatalf("third ewma = %v", got)
	}
	// Instances are isolated.
	if got := p.NewInstance().Feed(ev("a", "load", 99.0)); got != 99 {
		t.Fatal("instances share state")
	}
}

func TestDSLCountFilterWhen(t *testing.T) {
	// Count only "access" events — the Figure 8 fast-handler pattern.
	p := MustCompile("(count (= name access))")
	in := p.NewInstance()
	in.Feed(ev("access"))
	in.Feed(ev("message"))
	got := in.Feed(ev("access"))
	if got != 2 {
		t.Fatalf("filtered count = %v", got)
	}
	// Threshold trigger.
	trig := MustCompile("(when (> (ewma load 1) 5))").NewInstance()
	if trig.Fired(ev("a", "load", 3.0)) {
		t.Fatal("fired below threshold")
	}
	if !trig.Fired(ev("a", "load", 9.0)) {
		t.Fatal("did not fire above threshold")
	}
	// filter returns the value when the predicate holds.
	f := MustCompile("(filter (= name access) load)").NewInstance()
	if f.Feed(ev("other", "load", 7.0)) != 0 {
		t.Fatal("filter leaked")
	}
	if f.Feed(ev("access", "load", 7.0)) != 7 {
		t.Fatal("filter dropped value")
	}
}

func TestDSLStatefulMinMaxSumDelta(t *testing.T) {
	in := MustCompile("(max load)").NewInstance()
	in.Feed(ev("a", "load", 3.0))
	in.Feed(ev("a", "load", 9.0))
	if got := in.Feed(ev("a", "load", 5.0)); got != 9 {
		t.Fatalf("max = %v", got)
	}
	in = MustCompile("(min load)").NewInstance()
	in.Feed(ev("a", "load", 3.0))
	if got := in.Feed(ev("a", "load", 9.0)); got != 3 {
		t.Fatalf("min = %v", got)
	}
	in = MustCompile("(sum load)").NewInstance()
	in.Feed(ev("a", "load", 3.0))
	if got := in.Feed(ev("a", "load", 4.0)); got != 7 {
		t.Fatalf("sum = %v", got)
	}
	in = MustCompile("(delta load)").NewInstance()
	in.Feed(ev("a", "load", 10.0))
	if got := in.Feed(ev("a", "load", 14.0)); got != 4 {
		t.Fatalf("delta = %v", got)
	}
}

func TestDSLRejectsInvalidPrograms(t *testing.T) {
	bad := []string{
		"",
		"(loop 1)",         // no loops, unknown op
		"(+ 1)",            // arity
		"(ewma load 2)",    // alpha out of range
		"(ewma load load)", // alpha not constant
		"(+ 1 2",           // unterminated
		"(+ 1 2) 3",        // trailing
		")",                // stray paren
		"(not (not (not (not (not (not (not (not (not (not (not (not (not (not (not (not (not 1)))))))))))))))))", // too deep
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Fatalf("compiled invalid program %q", src)
		}
	}
}

func TestObserverAndHierarchy(t *testing.T) {
	// Three nodes: 1 and 2 forward to 0 (Figure 8's hierarchy).
	obs := []*Observer{NewObserver(), NewObserver(), NewObserver()}
	for _, o := range obs {
		o.AddHandler("accesses", MustCompile("(count (= name access))"))
		o.AddHandler("bytes", MustCompile("(sum size)"))
	}
	obs[1].Observe(ev("access", "size", 100.0))
	obs[1].Observe(ev("access", "size", 50.0))
	obs[2].Observe(ev("access", "size", 25.0))
	obs[2].Observe(ev("other", "size", 7.0))

	h := NewHierarchy([]int{0, 0, 0})
	for i, o := range obs {
		h.SetLocal(i, o.DB())
	}
	g := h.GlobalView()
	if g["accesses"] != 3 {
		t.Fatalf("global accesses = %v", g["accesses"])
	}
	if g["bytes"] != 182 {
		t.Fatalf("global bytes = %v", g["bytes"])
	}
	if g["events"] != 4 {
		t.Fatalf("global events = %v", g["events"])
	}
	// Subtree views are partial.
	if h.Aggregate(1)["bytes"] != 150 {
		t.Fatal("subtree aggregate wrong")
	}
	top := TopKeys(g, 2)
	if len(top) != 2 || top[0] != "bytes" {
		t.Fatalf("top keys = %v", top)
	}
}

func g(b byte) guid.GUID { return guid.FromData([]byte{b}) }

func TestClusterRecognition(t *testing.T) {
	c := NewClusterRecognizer(3)
	// Two strongly related pairs accessed in separate sessions, with
	// enough random noise between sessions to flush the co-access
	// window, so only the true pairs accumulate strong edges.
	r := rand.New(rand.NewSource(1))
	noise := func() {
		for j := 0; j < 4; j++ {
			c.Access(g(byte(100 + r.Intn(120))))
		}
	}
	for i := 0; i < 30; i++ {
		c.Access(g(1))
		c.Access(g(2)) // cluster A: 1,2
		noise()
		c.Access(g(10))
		c.Access(g(11)) // cluster B: 10,11
		noise()
	}
	clusters := c.Clusters(15)
	if len(clusters) < 2 {
		t.Fatalf("found %d clusters, want >= 2", len(clusters))
	}
	found := map[string]bool{}
	for _, cl := range clusters {
		for _, m := range cl {
			found[m.String()] = true
		}
	}
	for _, want := range []guid.GUID{g(1), g(2), g(10), g(11)} {
		if !found[want.String()] {
			t.Fatalf("object %v not clustered", want.Short())
		}
	}
	if c.EdgeWeight(g(1), g(2)) != c.EdgeWeight(g(2), g(1)) {
		t.Fatal("edge weight not symmetric")
	}
	// Decay fades relationships.
	w := c.EdgeWeight(g(1), g(2))
	c.Decay(0.5)
	if got := c.EdgeWeight(g(1), g(2)); math.Abs(got-w/2) > 1e-9 {
		t.Fatalf("decay: %v -> %v", w, got)
	}
	for i := 0; i < 20; i++ {
		c.Decay(0.1)
	}
	if len(c.Clusters(1)) != 0 {
		t.Fatal("fully decayed graph still clusters")
	}
}

func TestPrefetcherLearnsHighOrderCorrelations(t *testing.T) {
	// Order-2 pattern: after (A,B) comes C; after (X,B) comes D.  An
	// order-1 model cannot separate them; an order-2 model can.
	A, B, C, D, X := g(1), g(2), g(3), g(4), g(5)
	var trace []guid.GUID
	for i := 0; i < 60; i++ {
		trace = append(trace, A, B, C, X, B, D)
	}
	rate2 := HitRate(NewPrefetcher(2), trace, 1, 12)
	rate1 := HitRate(NewPrefetcher(1), trace, 1, 12)
	if rate2 < 0.95 {
		t.Fatalf("order-2 hit rate %.2f on deterministic order-2 pattern", rate2)
	}
	if rate1 >= rate2 {
		t.Fatalf("order-1 (%.2f) should not beat order-2 (%.2f)", rate1, rate2)
	}
}

func TestPrefetcherRobustToNoise(t *testing.T) {
	// §5: "the method correctly captured high-order correlations, even
	// in the presence of noise."  30% random interleavings still leave
	// the pattern predictable well above chance.
	r := rand.New(rand.NewSource(2))
	A, B, C := g(1), g(2), g(3)
	var trace []guid.GUID
	for i := 0; i < 300; i++ {
		if r.Float64() < 0.3 {
			trace = append(trace, g(byte(50+r.Intn(100))))
			continue
		}
		trace = append(trace, A, B, C)
	}
	rate := HitRate(NewPrefetcher(2), trace, 2, 30)
	if rate < 0.45 {
		t.Fatalf("hit rate %.2f under 30%% noise", rate)
	}
}

func TestPrefetcherFallback(t *testing.T) {
	p := NewPrefetcher(3)
	A, B := g(1), g(2)
	p.Access(A)
	p.Access(B)
	p.Access(A)
	p.Access(B)
	// Unseen long context still predicts from shorter contexts.
	preds := p.Predict(1)
	if len(preds) != 1 {
		t.Fatalf("predictions = %v", preds)
	}
	if NewPrefetcher(0).Predict(1) != nil {
		t.Fatal("empty model predicted")
	}
	if p.Predict(0) != nil {
		t.Fatal("n=0 returned predictions")
	}
}
