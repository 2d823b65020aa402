package introspect_test

import (
	"fmt"

	"oceanstore/internal/introspect"
)

// Fast event handlers are written in the loop-free DSL of §4.7.1:
// constant work per event, statically bounded resources.
func ExampleCompile() {
	// Trigger when the smoothed request rate crosses a threshold.
	prog, err := introspect.Compile("(when (> (ewma load 0.5) 100))")
	if err != nil {
		panic(err)
	}
	h := prog.NewInstance()
	for _, load := range []float64{40, 80, 180, 220} {
		fired := h.Feed(introspect.Event{Name: "access", Fields: map[string]float64{"load": load}}) != 0
		fmt.Printf("load=%3.0f fired=%v\n", load, fired)
	}
	// Loops are rejected at compile time.
	_, err = introspect.Compile("(loop 1)")
	fmt.Println("loops allowed:", err == nil)
	// Output:
	// load= 40 fired=false
	// load= 80 fired=false
	// load=180 fired=true
	// load=220 fired=true
	// loops allowed: false
}

// Observers aggregate handler outputs into a local summary database
// that forwards up the hierarchy (Figure 8).
func ExampleObserver() {
	o := introspect.NewObserver()
	o.AddHandler("accesses", introspect.MustCompile("(count (= name access))"))
	o.AddHandler("bytes", introspect.MustCompile("(sum size)"))
	o.Observe(introspect.Event{Name: "access", Fields: map[string]float64{"size": 100}})
	o.Observe(introspect.Event{Name: "message", Fields: map[string]float64{"size": 10}})
	o.Observe(introspect.Event{Name: "access", Fields: map[string]float64{"size": 50}})
	db := o.DB()
	fmt.Printf("accesses=%.0f bytes=%.0f\n", db["accesses"], db["bytes"])
	// Output: accesses=2 bytes=160
}
