// Command gates is `make gates`: one run that answers three questions —
// do the documents name what the code declares, is every output
// deterministic, and what code does no run reach?
//
// It first checks the documents (see docs.go): every backticked code
// name in DESIGN.md, README.md, EXPERIMENTS.md and benchmark/README.md
// names a declaration of the module or is allowed by cover/NAMES.txt,
// and every DESIGN §n citation names a section.  Then it builds osexp,
// the oceanstore demo and the examples with coverage instrumentation
// (-cover -coverpkg=./...), drives them through one table of runs under
// a GOCOVERDIR it owns, and fails unless
//
//   - every run of a row emits byte-identical stdout and byte-identical
//     files for the outputs the row names ({metrics}, {trace});
//   - a row's first run prints exactly the committed file it names, if
//     any (the experiments row: EXPERIMENTS.out, which `make
//     experiments` writes);
//   - the rails the row names are present, and the row's first run
//     stays inside its peak-RSS budget;
//   - the census holds: the functions no run entered are exactly the
//     ones cover/REACH.txt lists (see census.go).
//
// Usage, from the repository root:
//
//	go run ./cmd/gates
//
// Runs are sequential.  Binaries and outputs land in a fresh temp
// directory that is removed on success; on failure the row (or the
// document, file and line) is named and the directory — with both
// differing files — is left on disk.
package main

import (
	"bytes"
	"cmp"
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
// appended to the row's.
type variant struct {
	procs int
	extra []string
}

// row is one gate: every variant must produce the same outputs as the
// first.  In args and extras, "{metrics}" and "{trace}" become files
// private to the run that are compared like stdout, and "{dir}" a fresh
// directory (blobstore volumes).  Rails are (?m) regexps the first
// variant's stdout / stderr must match.
type row struct {
	name string
	// prog is the binary the row runs ("" runs osexp).
	prog     string
	args     []string
	variants []variant
	stdout   []string
	stderr   []string
	// rssBudgetMB, when positive, bounds the first variant's peak RSS
	// as the kernel reports it in the child's rusage.
	rssBudgetMB float64
	// golden, when set, is the committed file the first variant's
	// stdout must equal byte for byte.
	golden string
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
		args:     []string{"-metrics", "{metrics}", "soak", "1", "-nodes", "1000", "-ops", "100000", "-flush", flush},
		variants: diskAndMem,
		stdout:   []string{`^archival maintenance: scrubbed`},
		stderr:   []string{`^blobstore: .* puts/flush\), .* group commits`},
		pass:     "1k-node disk soak byte-identical at GOMAXPROCS 1 and 4 and to the mem backend",
	}
}

// programRow runs one example, or the demo command, at GOMAXPROCS 1 and
// 4.  The programs take no arguments, so stdout is all there is to
// compare; the rail is the line that says the program's story ended
// the way it should.  The email and library examples check each claim
// they print and exit non-zero on a failed one, so their rail is the
// closing line that counts the checks passed.
func programRow(prog, rail string) row {
	return row{
		name:     prog,
		prog:     prog,
		variants: procs1and4,
		stdout:   []string{rail},
		pass:     "stdout byte-identical at GOMAXPROCS 1 and 4",
	}
}

// gates is the table.
//
// soak-100k: the soak engine at scale.  On the coverage-instrumented
// osexp, 100k nodes + 10k ops peak at 120.7–133.6 MB over thirteen runs
// at GOMAXPROCS 1 (2-CPU x86-64 Linux); the budget is the highest of
// them plus 10 %.  Its dump must stay under 5 000 series.  The
// full-scale run is
//
//	osexp -metrics soak.txt soak 1 -nodes 1000000 -ops 1000000
//
// introspect-10k: the control loop's EWMA folds, sorted candidate
// passes and read service queues draw nothing from the wall clock or
// scheduler interleaving, and the report carries the rails the flash
// ablation greps for.
//
// scenarios: the whole adversarial catalogue — every defense armed
// (invariants must hold) and switched off (invariants must break).
//
// experiments: every figure osexp regenerates, with both dumps on.
// seeds: the same experiment over two seeds, fanned out on the
// fork-join pool at GOMAXPROCS 4 and run serially at 1.  soak-grow:
// an open-loop soak whose arrival rate follows a day/night cycle while
// 200 nodes join mid-run.
//
// usage: -h prints the usage text and exits 0.
var gates = []row{
	{
		name:     "soak-100k",
		args:     []string{"-metrics", "{metrics}", "soak", "1", "-nodes", "100000", "-ops", "10000"},
		variants: procs1and4,
		stderr: []string{
			`^mem: .* peak RSS .* MB; live .* MB after GC, retained .* B/write over .* writes$`,
			`^kernel: .* events run, .* timers stopped; queue mean `,
			`^crypto: .* signatures started .* joins .* ready .* taken .* waited, .* keys derived; certificates `,
			// Fewer than 5 000 series: the dump summarises per-entity
			// families, and must not grow back to one series per link.
			`^obs: ([0-9]{1,3}|[1-4][0-9]{3}) series in .* families, snapshot .* ms, write .* ms, .* MB`,
		},
		rssBudgetMB: 147,
		pass:        "100k nodes byte-identical at GOMAXPROCS 1 and 4",
	},
	blobstoreRow("0"),
	blobstoreRow("5s"),
	{
		name:     "introspect-10k",
		args:     []string{"-metrics", "{metrics}", "soak", "1", "-nodes", "10000", "-ops", "20000", "-introspect", "-flash", "2m"},
		variants: procs1and4,
		stdout:   []string{`^introspect: `, `^read latency: `, `promotes`},
		pass:     "10k-node flash soak byte-identical at GOMAXPROCS 1 and 4",
	},
	{
		name:     "scenarios",
		args:     []string{"-metrics", "{metrics}", "scenarios", "1"},
		variants: procs1and4,
		stdout:   []string{`^invariant failures: 0$`},
		pass:     "all invariants hold armed, all break disarmed; dumps byte-identical at GOMAXPROCS 1 and 4",
	},
	{
		name:     "experiments",
		args:     []string{"-metrics", "{metrics}", "-trace", "{trace}", "all", "1"},
		variants: procs1and4,
		stdout:   []string{`^==== scenarios: `, `^invariant failures: 0$`},
		golden:   "EXPERIMENTS.out",
		pass:     "every experiment's report, metrics dump and trace byte-identical at GOMAXPROCS 1 and 4",
	},
	{
		name:     "seeds",
		args:     []string{"-metrics", "{metrics}", "-seeds", "2", "latency", "1"},
		variants: procs1and4,
		stdout:   []string{`^-- aggregate: latency over 2 seeds \[1\.\.2\]`},
		pass:     "a two-seed sweep byte-identical fanned out and serial",
	},
	{
		name: "soak-grow",
		args: []string{"-metrics", "{metrics}", "soak", "1", "-nodes", "1000", "-ops", "5000",
			"-openloop", "-diurnal", "2m", "-grow", "200", "-growat", "30s"},
		variants: procs1and4,
		stdout:   []string{`^soak: 1200 nodes, .* open loop`},
		pass:     "open-loop diurnal soak with mid-run growth byte-identical at GOMAXPROCS 1 and 4",
	},
	{
		name:     "usage",
		args:     []string{"-h"},
		variants: []variant{{procs: 1}},
		stderr:   []string{`^usage: osexp `, `^  all +run everything$`},
		pass:     "usage lists the experiments",
	},
	programRow("oceanstore", `^virtual time elapsed: `),
	programRow("quickstart", `^previous version GUID: `),
	programRow("email", `^email: all [0-9]+ checks passed$`),
	programRow("library", `^library: all [0-9]+ checks passed$`),
	programRow("nomadic", `^refreshed from its tree parent, the edge copy serves: `),
	programRow("sensors", `^archival snapshots of the feed: [1-9]`),
}

// result is where one run's outputs landed: stdout first, then each
// named output file in argument order.
type result struct {
	label     string
	outputs   []string
	errOut    string
	peakRSSMB float64
}

// run executes one variant of a row under covDir, writing its outputs
// under dir.
func run(bin, covDir, dir string, r row, i int) (result, error) {
	v := r.variants[i]
	base := filepath.Join(dir, fmt.Sprintf("%s.%d", r.name, i))
	res := result{
		label:   strings.TrimSpace(fmt.Sprintf("GOMAXPROCS=%d %s", v.procs, strings.Join(v.extra, " "))),
		outputs: []string{base + ".stdout"},
		errOut:  base + ".stderr",
	}
	var args []string
	for _, a := range append(append([]string(nil), r.args...), v.extra...) {
		switch a {
		case "{dir}":
			a = base + ".vols"
			if err := os.Mkdir(a, 0o755); err != nil {
				return res, err
			}
		case "{metrics}", "{trace}":
			a = base + "." + strings.Trim(a, "{}")
			res.outputs = append(res.outputs, a)
		}
		args = append(args, a)
	}
	stdout, err := os.Create(res.outputs[0])
	if err != nil {
		return res, err
	}
	defer stdout.Close()
	stderr, err := os.Create(res.errOut)
	if err != nil {
		return res, err
	}
	defer stderr.Close()
	prog := r.prog
	if prog == "" {
		prog = "osexp"
	}
	cmd := exec.Command(filepath.Join(bin, prog), args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(v.procs), "GOCOVERDIR="+covDir)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s %s: %w (stderr in %s)", prog, strings.Join(args, " "), err, res.errOut)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return res, nil
}

// same fails unless files a and b hold the same bytes, naming the first
// line at which they differ.
func same(a, b string) error {
	x, err1 := os.ReadFile(a)
	y, err2 := os.ReadFile(b)
	if err := cmp.Or(err1, err2); err != nil || bytes.Equal(x, y) {
		return err
	}
	xs, ys := strings.SplitAfter(string(x), "\n"), strings.SplitAfter(string(y), "\n")
	i := 0
	for xs[i] == ys[i] { // they differ before either runs out
		i++
	}
	return fmt.Errorf("%s:%d differs from %s: %q against %q", a, i+1, b, xs[i], ys[i])
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
func check(bin, covDir, dir string, r row) (string, error) {
	var first result
	for i := range r.variants {
		res, err := run(bin, covDir, dir, r, i)
		if err != nil {
			return "", err
		}
		if i == 0 {
			first = res
			continue
		}
		for j, out := range res.outputs {
			if err := same(first.outputs[j], out); err != nil {
				return "", fmt.Errorf("%s differ between [%s] and [%s]: %w", filepath.Ext(out)[1:], first.label, res.label, err)
			}
		}
	}
	if err := rails(first.outputs[0], r.stdout); err != nil {
		return "", err
	}
	if err := rails(first.errOut, r.stderr); err != nil {
		return "", err
	}
	pass := r.pass
	if r.golden != "" {
		if err := same(r.golden, first.outputs[0]); err != nil {
			return "", fmt.Errorf("%w (make experiments regenerates %s)", err, r.golden)
		}
		pass += "; stdout equals " + r.golden
	}
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

// gate checks the documents, builds the instrumented programs into dir,
// runs the table and takes the census.
func gate(dir string) error {
	docs, err := docGate()
	if err != nil {
		return fmt.Errorf("docs: %w", err)
	}
	fmt.Printf("gates: docs: %s\n", docs)
	bin, covDir := filepath.Join(dir, "bin"), filepath.Join(dir, "cover")
	for _, d := range []string{bin, covDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return err
		}
	}
	// Each program builds to a binary named after its directory.
	build := exec.Command("go", "build", "-cover", "-coverpkg=./...", "-o", bin+"/",
		"./cmd/osexp", "./cmd/oceanstore", "./examples/...")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building the instrumented programs: %w", err)
	}
	for _, r := range gates {
		pass, err := check(bin, covDir, dir, r)
		if err != nil {
			return fmt.Errorf("row %s: %w", r.name, err)
		}
		fmt.Printf("gates: %s: %s\n", r.name, pass)
	}
	funcs, err := exec.Command("go", "tool", "covdata", "func", "-i="+covDir).Output()
	if err != nil {
		return fmt.Errorf("go tool covdata func: %w", err)
	}
	listed, err := os.ReadFile(reachFile)
	if err != nil {
		return err
	}
	summary, err := census(string(funcs), string(listed))
	if err != nil {
		return fmt.Errorf("census: %w", err)
	}
	fmt.Printf("gates: census: %s\n", summary)
	return nil
}

func main() {
	if len(os.Args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: gates (from the repository root)")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp("", "gates-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gates:", err)
		os.Exit(1)
	}
	if err := gate(dir); err != nil {
		fmt.Fprintf(os.Stderr, "gates: %v\ngates: outputs kept in %s\n", err, dir)
		os.Exit(1)
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "gates:", err)
		os.Exit(1)
	}
}
