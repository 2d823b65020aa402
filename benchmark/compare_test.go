package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func writeSet(t *testing.T, name string, seed int64, edit func(e2e, layer metrics)) string {
	t.Helper()
	wr := workloadResult{
		Name: "steady-10k", Ops: 1000,
		EndToEnd: metrics{"setup_s": 1, "ops_per_s": 10000, "commit_p50_ms": 200, "failed_frac": 0, "wire_kb_per_op": 2},
		PerLayer: metrics{"byz.handle_s": 3, "byz.commits": 300},
	}
	if edit != nil {
		edit(wr.EndToEnd, wr.PerLayer)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := writeJSON(path, resultSet{Seed: seed, Seconds: 20, Workloads: []workloadResult{wr}}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	base := writeSet(t, "a.json", 1, nil)
	for _, tc := range []struct {
		name string
		seed int64
		edit func(e2e, layer metrics)
		flag string // substring of the verdict expected, "" for a pass
	}{
		{"identical", 1, nil, ""},
		{"host noise within bound", 1, func(e, _ metrics) { e["ops_per_s"] *= 0.97 }, ""},
		{"host improvement", 1, func(e, _ metrics) { e["ops_per_s"] *= 2; e["setup_s"] /= 2 }, ""},
		{"throughput regression", 1, func(e, _ metrics) { e["ops_per_s"] *= 0.5 }, "REGRESSION"},
		{"setup regression", 1, func(e, _ metrics) { e["setup_s"] *= 1.5 }, "REGRESSION"},
		{"virtual drift, same seed", 1, func(e, _ metrics) { e["commit_p50_ms"] += 0.001 }, "NOT EXACT"},
		{"count drift, same seed", 1, func(_, l metrics) { l["byz.commits"]++ }, "NOT EXACT"},
		{"span drift is only printed", 1, func(_, l metrics) { l["byz.handle_s"] *= 3 }, ""},
		{"virtual drift, other seed, within bound", 2, func(e, _ metrics) { e["commit_p50_ms"] *= 1.01 }, ""},
		{"virtual regression, other seed", 2, func(e, _ metrics) { e["commit_p50_ms"] *= 1.5 }, "REGRESSION"},
		{"failures appear", 1, func(e, _ metrics) { e["failed_frac"] = 0.01 }, "NOT EXACT"},
		{"failures appear, other seed", 2, func(e, _ metrics) { e["failed_frac"] = 0.01 }, "REGRESSION"},
		{"metric vanished", 1, func(e, _ metrics) { delete(e, "wire_kb_per_op") }, "ONE SET ONLY"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := compareFiles(&out, base, writeSet(t, "b.json", tc.seed, tc.edit))
			if (err != nil) != (tc.flag != "") {
				t.Fatalf("err = %v, want flagged=%v\n%s", err, tc.flag != "", out.String())
			}
			if !strings.Contains(out.String(), tc.flag) {
				t.Fatalf("output lacks %q:\n%s", tc.flag, out.String())
			}
		})
	}
}

func TestCompareMissingWorkload(t *testing.T) {
	a := writeSet(t, "a.json", 1, nil)
	b := filepath.Join(t.TempDir(), "b.json")
	if err := writeJSON(b, resultSet{Seed: 1, Seconds: 20}); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(&bytes.Buffer{}, a, b); err == nil {
		t.Fatal("a workload missing from b was not flagged")
	}
}
