// Command benchmark is the repository's one soak benchmark: four
// workloads over core.SoakWorld, end-to-end metrics in virtual time
// (what the modelled OceanStore would do) and host time (what the
// simulator costs to run), and a per-layer trace taken from outside the
// program.  README.md in this directory documents every workload and
// metric; BENCHMARK.json at the repository root is the contract a
// driver runs it under.
//
//	go run ./benchmark                        all workloads: 3 untraced reps + 1 traced run each
//	go run ./benchmark -only steady-10k       a subset
//	go run ./benchmark -out a.json            keep the result set
//	go run ./benchmark -compare a.json b.json compare two result sets
//	go run ./benchmark -workload steady-10k -seed 7 -seconds 20 -trace 0
//	                                          one run in this process; last stdout line is JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the op budgets in
// README's baseline tables are OpsPerSecond x this.
const defaultSeconds = 20

// pinned runtime settings, echoed in every output: host-time metrics
// are only comparable under the same ones.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

func pinRuntime() env {
	e := env{GOMAXPROCS: min(runtime.NumCPU(), 4), GOGC: 100, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	runtime.GOMAXPROCS(e.GOMAXPROCS)
	debug.SetGCPercent(e.GOGC)
	return e
}

type options struct {
	seed    int64
	seconds int
	trace   int
	reps    int
	only    string
	out     string
	tmp     string
}

func main() {
	var o options
	workloadName := flag.String("workload", "", "run this one workload in this process and print its result as a last JSON line (what BENCHMARK.json's command does)")
	flag.Int64Var(&o.seed, "seed", 1, "world and traffic seed")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "run size: each workload resolves OpsPerSecond x seconds operations")
	flag.IntVar(&o.trace, "trace", 1, "1: per-layer metrics from a traced run (after the untraced reps, or instead of them with -workload); 0: end-to-end metrics only")
	flag.IntVar(&o.reps, "reps", 3, "untraced repetitions per workload; host-time metrics report the median")
	flag.StringVar(&o.only, "only", "", "comma-separated workloads to run (default all)")
	flag.StringVar(&o.out, "out", "", "write the results as JSON to this file")
	flag.StringVar(&o.tmp, "tmp", os.TempDir(), "scratch directory for volumes, dumps and child results")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; exit non-zero on any regression beyond its bound")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	case o.seconds < 1 || o.reps < 1:
		err = fmt.Errorf("-seconds and -reps must be at least 1")
	case *workloadName != "":
		err = single(*workloadName, o)
	default:
		err = suite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// single runs one workload in this process.  With -trace 1 it first
// runs the untraced reference in a fresh child, then the traced run
// here, and requires the two to agree exactly on everything that is a
// function of the seed: tracing must be observation only.
func single(name string, o options) error {
	sp, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	e := pinRuntime()
	ops := sp.OpsPerSecond * o.seconds
	fmt.Printf("%s: seed %d, %d ops, GOMAXPROCS=%d GOGC=%d (%d CPUs, %s)\n",
		sp.Name, o.seed, ops, e.GOMAXPROCS, e.GOGC, e.NumCPU, e.GoVersion)

	traced := o.trace != 0
	var ref *result
	if traced {
		var err error
		if ref, err = child(sp.Name, o, 0); err != nil {
			return fmt.Errorf("untraced reference run: %w", err)
		}
	}
	r, err := run(sp, o.seed, ops, traced, o.tmp)
	if err != nil {
		return err
	}
	listed := contractMetrics(traced)
	if traced {
		r.Problems = append(r.Problems, ref.Problems...)
		r.Problems = append(r.Problems, inexact(ref.Metrics, r.Metrics, "untraced", "traced")...)
		r.Metrics.set("trace.overhead_frac", r.Metrics["sim.run_s"]/ref.Metrics["sim.run_s"]-1)
		printShares(os.Stdout, r.Metrics)
	}
	printMetrics(os.Stdout, r.Metrics, r.Samples)
	for _, p := range r.Problems {
		fmt.Println("FAILED CHECK:", p)
	}
	if o.out != "" {
		if err := writeJSON(o.out, r); err != nil {
			return err
		}
	}

	// The contract line: exactly the listed metrics, each present.
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]contractVal `json:"metrics"`
	}{len(r.Problems) == 0, r.Ops, r.Failed, map[string]contractVal{}}
	for _, d := range listed {
		v, ok := r.Metrics[d.Name]
		if !ok && !traced {
			return fmt.Errorf("%s was not measured: %d ops give too few samples (raise -seconds)", d.Name, ops)
		}
		line.Metrics[d.Name] = contractVal{v, d.Unit}
	}
	js, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	if !line.Correct {
		return fmt.Errorf("%s: %d correctness checks failed", sp.Name, len(r.Problems))
	}
	return nil
}

type contractVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractMetrics is what BENCHMARK.json lists: with tracing off, the
// end-to-end metrics every workload measures; with it on, every
// per-layer metric (zero where a layer is idle in the workload).
func contractMetrics(traced bool) []metric {
	if traced {
		return perLayer
	}
	var out []metric
	for _, d := range endToEnd {
		if d.Everywhere {
			out = append(out, d)
		}
	}
	return out
}

// child runs one workload in a fresh process — so peak RSS and heap
// state are the workload's own — and returns its result.
func child(workload string, o options, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(o.tmp, "result-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace),
		"-out", f.Name(), "-tmp", o.tmp)
	cmd.Stderr = os.Stderr
	// A child that fails its checks still writes its result; report
	// the checks, not the exit code.
	runErr := cmd.Run()
	var r result
	if err := readJSON(f.Name(), &r); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	return &r, nil
}

// inexact lists the seed-determined metrics two runs of the same seed
// disagree on.  Only metrics both runs measured are compared.
func inexact(a, b metrics, aName, bName string) []string {
	var out []string
	for _, name := range sortedNames(a) {
		av, bv := a[name], b[name]
		if _, both := b[name]; both && catalogue[name].Clock.exact() && av != bv {
			out = append(out, fmt.Sprintf("%s differs between the %s run (%v) and the %s run (%v) of one seed", name, aName, av, bName, bv))
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	js, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	js, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(js, v); err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return nil
}

// selected resolves -only against the workload table.
func selected(only string) ([]spec, error) {
	if only == "" {
		return workloads, nil
	}
	var out []spec
	for _, name := range strings.Split(only, ",") {
		sp, ok := findWorkload(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q in -only", name)
		}
		out = append(out, sp)
	}
	return out, nil
}
