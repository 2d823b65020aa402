package main

import (
	"strings"
	"testing"
)

// funcs is `go tool covdata func` output for a three-function program.
const funcs = `oceanstore/internal/a/a.go:10:	Reached		100.0%
oceanstore/internal/a/a.go:20:	*T.Unreached	0.0%
oceanstore/oceanstore.go:5:	Facade		0.0%
total		(statements)	61.5%
`

func TestCensus(t *testing.T) {
	for _, tc := range []struct {
		name  string
		funcs string
		reach string
		// wantErr is empty when the census must pass, else a substring
		// of the error.
		wantErr string
	}{
		{
			name: "exact match",
			reach: `# comment
internal/a/a.go *T.Unreached test TestT
oceanstore.go Facade paper §4.6 facade; TestFacade
`,
		},
		{
			name: "line numbers moved",
			funcs: strings.NewReplacer(":10:", ":11:", ":20:", ":31:", ":5:", ":7:").
				Replace(funcs),
			reach: "internal/a/a.go *T.Unreached test TestT\noceanstore.go Facade fault injector\n",
		},
		{
			name:    "new unreached function",
			reach:   "internal/a/a.go *T.Unreached test TestT\n",
			wantErr: "new unreached function oceanstore.go Facade",
		},
		{
			name: "listed function now reached",
			reach: `internal/a/a.go *T.Unreached test TestT
internal/a/a.go Reached item5 router
oceanstore.go Facade fault injector
`,
			wantErr: "stale line internal/a/a.go Reached: a run reaches it now",
		},
		{
			name: "listed function deleted",
			reach: `internal/a/a.go *T.Unreached test TestT
internal/a/a.go Gone test TestGone
oceanstore.go Facade fault injector
`,
			wantErr: "stale line internal/a/a.go Gone: no such function",
		},
		{
			name:    "unknown category",
			reach:   "internal/a/a.go *T.Unreached later maybe\noceanstore.go Facade fault injector\n",
			wantErr: `unknown category "later"`,
		},
		{
			name:    "paper line without a test",
			reach:   "internal/a/a.go *T.Unreached test TestT\noceanstore.go Facade paper §4.6 facade\n",
			wantErr: "names its § and the test",
		},
		{
			name:    "uninstrumented programs",
			funcs:   "total (statements) 0.0%\n",
			reach:   "",
			wantErr: "no functions",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.funcs
			if in == "" {
				in = funcs
			}
			summary, err := census(in, tc.reach)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("census failed: %v", err)
			case tc.wantErr == "" && summary != "2 of 3 functions unreached, each listed in cover/REACH.txt":
				t.Fatalf("summary %q", summary)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("census passed, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
