package main

import (
	"os"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalogue keeps the contract file and the
// code from drifting: same workloads, same metrics, same units,
// directions and bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	var bj benchmarkJSON
	if err := readJSON("../BENCHMARK.json", &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	var driven []spec
	for _, sp := range workloads {
		if !sp.SuiteOnly {
			driven = append(driven, sp)
		}
	}
	if len(bj.Workloads) != len(driven) {
		t.Fatalf("%d workloads listed, %d defined for a driver", len(bj.Workloads), len(driven))
	}
	for i, w := range bj.Workloads {
		if w.Name != driven[i].Name || w.Why != driven[i].Why {
			t.Errorf("workload %d: listed %q (%q), defined %q (%q)", i, w.Name, w.Why, driven[i].Name, driven[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	e2e := contractMetrics(false)
	if len(bj.EndToEnd) != len(e2e) {
		t.Fatalf("%d end_to_end metrics listed, %d defined on every workload", len(bj.EndToEnd), len(e2e))
	}
	for i, m := range bj.EndToEnd {
		d := e2e[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: listed %+v, catalogue %+v", i, m, d)
		}
		if d.Abs || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v (abs=%v) is outside the contract's (0, 0.25] share", d.Name, d.Bound, d.Abs)
		}
	}
	layer := contractMetrics(true)
	if len(bj.PerLayer) != len(layer) {
		t.Fatalf("%d per_layer metrics listed, %d in the catalogue", len(bj.PerLayer), len(layer))
	}
	for i, m := range bj.PerLayer {
		if d := layer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: listed %+v, catalogue %+v", i, m, d)
		}
	}
}

// TestReadmeCoversCatalogue: every workload and every metric has its
// entry in README.md.
func TestReadmeCoversCatalogue(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range workloads {
		if !strings.Contains(string(readme), "`"+sp.Name+"`") {
			t.Errorf("README.md does not describe workload %s", sp.Name)
		}
	}
	for name := range catalogue {
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md glossary lacks %s", name)
		}
	}
}
