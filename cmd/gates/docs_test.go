package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// docSrcs is a two-package module: obs.Registry embeds an unexported
// base whose method it promotes, and byz.Group embeds *obs.Registry.
var docSrcs = map[string]string{
	"internal/obs/obs.go": `package obs

type base struct{ n int }

func (base) Snapshot() {}

type Registry struct {
	base
	Name string
}

func (r *Registry) Dump() {}

func New() *Registry { return nil }
`,
	"internal/obs/obs_test.go": `package obs_test

func Helper() {}
`,
	"internal/byz/byz.go": `package byz

import "oceanstore/internal/obs"

// Votes travel as DESIGN.md §1 says.
type Group struct{ *obs.Registry }

type replica struct{}

func (r *replica) installView() {}
`,
}

func TestCheckDocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		design string
		cites  string // the Makefile
		allow  string
		// wantErr is empty when the check must pass, else a substring
		// of the error.
		wantErr string
	}{
		{
			name:   "every name resolves",
			design: "## 1. Layers\n`obs.Registry`, `obs.New()`, `Registry.Dump`, `*Registry.Dump`,\n`obs.Registry.Name`, `replica.installView`, `obs.Helper`.\n",
		},
		{
			name:    "a deleted method",
			design:  "## 1. Layers\n\nThe dump is `Registry.Dump`, then\n`Registry.Flush`.\n",
			wantErr: "DESIGN.md:4: `Registry.Flush` names nothing the module declares",
		},
		{
			name:   "promoted methods",
			design: "## 1. Layers\n`Registry.Snapshot`, `obs.Registry.Snapshot`, `byz.Group.Dump`, `Group.Snapshot`, `Group.n`.\n",
		},
		{
			name:   "metrics and files are not code",
			design: "## 1. Layers\n`byz.us_per_commit`, `dtree.bytes`, `run.go`, `replica.notice_misses`, `time.Duration`, `eng.Start`.\n",
		},
		{
			name:   "fenced code is not checked",
			design: "## 1. Layers\n```\n`Registry.Flush`\n```\n",
		},
		{
			name:   "an allow-listed name",
			design: "## 1. Layers\n`obs.Sign` is the method.\n",
			allow:  "# comment\nobs.Sign the method (*obs.Update).Sign\n",
		},
		{
			name:    "an allow-list line that now resolves",
			design:  "## 1. Layers\n`obs.New`\n",
			allow:   "obs.New ROADMAP 2(a)\n",
			wantErr: "cover/NAMES.txt:1: `obs.New` resolves now",
		},
		{
			name:    "an allow-list line without a why",
			design:  "## 1. Layers\n`obs.Gone`\n",
			allow:   "obs.Gone\n",
			wantErr: "DESIGN.md:2: `obs.Gone` names nothing",
		},
		{
			name:    "a section that moved",
			design:  "## 2. Layers\n",
			wantErr: "internal/byz/byz.go:5: DESIGN §1 names no section of DESIGN.md",
		},
		{
			name:    "a section cited across a comment line",
			design:  "## 1. Layers\n",
			cites:   "# fuzz corpora (DESIGN\n# §7)\n",
			wantErr: "Makefile:1: DESIGN §7 names no section",
		},
		{
			name:    "a section cited by title",
			design:  "## 1. Layers\n**Leaf offload.**\n",
			cites:   "# DESIGN §\"Leaf offload\", DESIGN §\"Gone\"\n",
			wantErr: "Makefile:1: DESIGN §\"Gone\" names no section",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{"DESIGN.md": tc.design, "README.md": "See `obs.Registry`.\n",
				"Makefile": tc.cites, "cover/NAMES.txt": tc.allow}
			for f, src := range docSrcs {
				files[f] = src
			}
			summary, err := checkDocs(files)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("check failed: %v", err)
			case tc.wantErr == "" && !strings.Contains(summary, " code names in 4 documents resolve or are allowed by "):
				t.Fatalf("summary %q", summary)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("check passed, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestSame(t *testing.T) {
	const want = "==== fig6: E1 ====\n100  14.143  15.640\n\ninvariant failures: 0\n"
	dir := t.TempDir()
	committed := filepath.Join(dir, "EXPERIMENTS.out")
	if err := os.WriteFile(committed, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, got, wantErr string
	}{
		{"identical", want, ""},
		{"one digit", strings.Replace(want, "15.640", "15.650", 1), `EXPERIMENTS.out:2 differs from ` + dir + `/stdout: "100  14.143  15.640\n" against "100  14.143  15.650\n"`},
		{"a line short", strings.TrimSuffix(want, "invariant failures: 0\n"), `EXPERIMENTS.out:4 differs`},
		{"a line more", want + "extra\n", `EXPERIMENTS.out:5 differs`},
		{"no final newline", strings.TrimSuffix(want, "\n"), `EXPERIMENTS.out:4 differs`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout := filepath.Join(dir, "stdout")
			if err := os.WriteFile(stdout, []byte(tc.got), 0o644); err != nil {
				t.Fatal(err)
			}
			err := same(committed, stdout)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("same failed: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
