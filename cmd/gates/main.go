// Command gates is the determinism gate behind `make gates`: it drives
// an osexp binary through one table of configurations and fails unless
// every run of a row emits byte-identical metrics dumps and stdout
// summaries, the rails the row names are present, and the row's first
// run stays inside its peak-RSS budget.
//
// Usage:
//
//	go build -o /tmp/osexp ./cmd/osexp && go run ./cmd/gates /tmp/osexp
//
// Runs are sequential.  Outputs land in a fresh temp directory that is
// removed on success; on failure the row is named and the directory —
// with both differing files — is left on disk.  SOAK_RSS_BUDGET_MB
// overrides the budgeted (100k-node) row's budget.  `make reach` points the same
// table at a coverage-instrumented osexp.
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
)

// variant is one run of a row: a GOMAXPROCS value plus arguments
// appended to the row's.  "{dir}" in an argument becomes a fresh
// directory private to the run (blobstore volumes).
type variant struct {
	procs int
	extra []string
}

// row is one gate: every variant must produce the same metrics dump and
// the same stdout as the first.  Rails are (?m) regexps the first
// variant's stdout / stderr must match.
type row struct {
	name     string
	args     []string
	variants []variant
	stdout   []string
	stderr   []string
	// rssBudgetMB, when positive, bounds the first variant's peak RSS
	// as the kernel reports it in the child's rusage.
	rssBudgetMB float64
	// pass is the line printed when the row holds.
	pass string
}

var procs1and4 = []variant{{procs: 1}, {procs: 4}}

// diskAndMem is the blobstore ablation: the disk backend at both
// GOMAXPROCS values and the in-memory backend, all on one trajectory.
var diskAndMem = []variant{
	{1, []string{"-backend", "disk", "-storedir", "{dir}"}},
	{4, []string{"-backend", "disk", "-storedir", "{dir}"}},
	{4, []string{"-backend", "mem"}},
}

// blobstoreRow is the real-I/O gate at one fsync discipline: per-batch
// (-flush 0, the default) or the scheduler's group commit (-flush 5s,
// what the benchmark's archive-disk-1k runs), whose parallel join over
// the dirty volumes is the only place the store layer forks.
func blobstoreRow(flush string) row {
	return row{
		name:     "blobstore-1k-flush-" + flush,
		args:     []string{"soak", "1", "-nodes", "1000", "-ops", "100000", "-flush", flush},
		variants: diskAndMem,
		stdout:   []string{`^archival maintenance: scrubbed`},
		stderr:   []string{`^blobstore: .* puts/flush\), .* group commits`},
		pass:     "1k-node disk soak byte-identical at GOMAXPROCS 1 and 4 and to the mem backend",
	}
}

// gates is the table.  Twelve runs in all.
//
// soak-100k: the soak engine at scale.  With the family-indexed
// registry 100k nodes + 10k ops peak at 232–256 MB over seven runs
// (185k series attached), 233–253 MB over seven again at PR 25; the
// budget is the highest of them plus 10 %.
// The full-scale run is
//
//	osexp -metrics soak.txt soak 1 -nodes 1000000 -ops 1000000
//
// introspect-10k: the control loop's EWMA folds, sorted candidate
// passes and modeled read queues draw nothing from the wall clock or
// scheduler interleaving, and the report carries the rails the flash
// ablation greps for.
//
// scenarios: the whole adversarial catalogue — every defense armed
// (invariants must hold) and switched off (invariants must break).
var gates = []row{
	{
		name:     "soak-100k",
		args:     []string{"soak", "1", "-nodes", "100000", "-ops", "10000"},
		variants: procs1and4,
		stderr: []string{
			`^mem: .* peak RSS .* MB; live .* MB after GC, retained .* B/write over .* writes$`,
			`^kernel: .* events run, .* timers stopped; queue mean `,
			`^crypto: .* signatures started .* joins .* ready .* taken .* waited, .* keys derived; certificates `,
			`^obs: .* series in .* families, snapshot .* ms, write .* ms, .* MB`,
		},
		rssBudgetMB: 285,
		pass:        "100k nodes byte-identical at GOMAXPROCS 1 and 4",
	},
	blobstoreRow("0"),
	blobstoreRow("5s"),
	{
		name:     "introspect-10k",
		args:     []string{"soak", "1", "-nodes", "10000", "-ops", "20000", "-introspect", "-flash", "2m"},
		variants: procs1and4,
		stdout:   []string{`^introspect: `, `^read latency: `, `promotes`},
		pass:     "10k-node flash soak byte-identical at GOMAXPROCS 1 and 4",
	},
	{
		name:     "scenarios",
		args:     []string{"scenarios", "1"},
		variants: procs1and4,
		stdout:   []string{`^invariant failures: 0$`},
		pass:     "all invariants hold armed, all break disarmed; dumps byte-identical at GOMAXPROCS 1 and 4",
	},
}

// result is where one run's outputs landed.
type result struct {
	label                string
	metrics, out, errOut string
	peakRSSMB            float64
}

// run executes one variant of a row, writing its three outputs under
// dir.
func run(osexp, dir string, r row, i int) (result, error) {
	v := r.variants[i]
	base := filepath.Join(dir, fmt.Sprintf("%s.%d", r.name, i))
	res := result{
		label:   strings.TrimSpace(fmt.Sprintf("GOMAXPROCS=%d %s", v.procs, strings.Join(v.extra, " "))),
		metrics: base + ".metrics", out: base + ".stdout", errOut: base + ".stderr",
	}
	args := append([]string{"-metrics", res.metrics}, r.args...)
	for _, a := range v.extra {
		if a == "{dir}" {
			a = base + ".vols"
			if err := os.Mkdir(a, 0o755); err != nil {
				return res, err
			}
		}
		args = append(args, a)
	}
	stdout, err := os.Create(res.out)
	if err != nil {
		return res, err
	}
	defer stdout.Close()
	stderr, err := os.Create(res.errOut)
	if err != nil {
		return res, err
	}
	defer stderr.Close()
	cmd := exec.Command(osexp, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(v.procs))
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s %s: %w (stderr in %s)", osexp, strings.Join(args, " "), err, res.errOut)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return res, nil
}

// same reports whether two files hold the same bytes.
func same(a, b string) (bool, error) {
	x, err := os.ReadFile(a)
	if err != nil {
		return false, err
	}
	y, err := os.ReadFile(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(x, y), nil
}

// rails checks that every (?m) pattern matches the file.
func rails(file string, patterns []string) error {
	if len(patterns) == 0 {
		return nil
	}
	b, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	for _, p := range patterns {
		if !regexp.MustCompile("(?m)" + p).Match(b) {
			return fmt.Errorf("no line matching %q in %s", p, file)
		}
	}
	return nil
}

// check runs every variant of a row and holds it to the row's contract.
func check(osexp, dir string, r row) (string, error) {
	var first result
	for i := range r.variants {
		res, err := run(osexp, dir, r, i)
		if err != nil {
			return "", err
		}
		if i == 0 {
			first = res
			continue
		}
		for _, pair := range [][3]string{
			{"metrics", first.metrics, res.metrics},
			{"summaries", first.out, res.out},
		} {
			ok, err := same(pair[1], pair[2])
			if err != nil {
				return "", err
			}
			if !ok {
				return "", fmt.Errorf("%s differ between [%s] and [%s]: %s %s",
					pair[0], first.label, res.label, pair[1], pair[2])
			}
		}
	}
	if err := rails(first.out, r.stdout); err != nil {
		return "", err
	}
	if err := rails(first.errOut, r.stderr); err != nil {
		return "", err
	}
	pass := r.pass
	if r.rssBudgetMB > 0 {
		if first.peakRSSMB <= 0 {
			return "", fmt.Errorf("no peak RSS in the child's rusage")
		}
		if first.peakRSSMB > r.rssBudgetMB {
			return "", fmt.Errorf("peak RSS %.1f MB exceeds budget %.0f MB", first.peakRSSMB, r.rssBudgetMB)
		}
		pass += fmt.Sprintf("; peak RSS %.1f MB within %.0f MB", first.peakRSSMB, r.rssBudgetMB)
	}
	return pass, nil
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: gates OSEXP-BINARY")
		os.Exit(2)
	}
	osexp := os.Args[1]
	if s := os.Getenv("SOAK_RSS_BUDGET_MB"); s != "" {
		mb, err := strconv.ParseFloat(s, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gates: SOAK_RSS_BUDGET_MB=%q: %v\n", s, err)
			os.Exit(2)
		}
		for i := range gates {
			if gates[i].rssBudgetMB > 0 {
				gates[i].rssBudgetMB = mb
			}
		}
	}
	dir, err := os.MkdirTemp("", "gates-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gates:", err)
		os.Exit(1)
	}
	for _, r := range gates {
		pass, err := check(osexp, dir, r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gates: row %s: %v\ngates: outputs kept in %s\n", r.name, err, dir)
			os.Exit(1)
		}
		fmt.Printf("gates: %s: %s\n", r.name, pass)
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "gates:", err)
		os.Exit(1)
	}
}
