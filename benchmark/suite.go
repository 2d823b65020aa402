package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// resultSet is what the suite writes with -out and -compare reads.
type resultSet struct {
	Env       env              `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult is one workload's untraced repetitions, reduced, plus
// its traced run.
type workloadResult struct {
	Name   string `json:"name"`
	Ops    int    `json:"ops"`
	Failed int    `json:"failed"`
	// EndToEnd holds the median of each host-time metric across the
	// repetitions and the (identical) value of each virtual-time one.
	EndToEnd metrics        `json:"end_to_end"`
	Samples  map[string]int `json:"samples"`
	// Reps are the raw host-time values, in run order.
	Reps map[string][]float64 `json:"reps"`
	// PerLayer is the traced run (absent with -trace 0).
	PerLayer metrics  `json:"per_layer,omitempty"`
	Problems []string `json:"problems"`
}

// suite runs every selected workload: -reps untraced runs and one
// traced run, each in a fresh child process.
func suite(o options) error {
	specs, err := selected(o.only)
	if err != nil {
		return err
	}
	set := resultSet{Env: pinRuntime(), Seed: o.seed, Seconds: o.seconds}
	fmt.Printf("seed %d, %d reps, GOMAXPROCS=%d GOGC=%d (%d CPUs, %s)\n",
		o.seed, o.reps, set.Env.GOMAXPROCS, set.Env.GOGC, set.Env.NumCPU, set.Env.GoVersion)
	failedChecks := 0
	for _, sp := range specs {
		wr := workloadResult{
			Name: sp.Name, Ops: sp.OpsPerSecond * o.seconds,
			EndToEnd: metrics{}, Reps: map[string][]float64{},
		}
		var first *result
		for rep := 0; rep < o.reps; rep++ {
			r, err := child(sp.Name, o, 0)
			if err != nil {
				return fmt.Errorf("%s rep %d: %w", sp.Name, rep+1, err)
			}
			wr.Problems = append(wr.Problems, r.Problems...)
			if first == nil {
				first = r
			} else {
				wr.Problems = append(wr.Problems, inexact(first.Metrics, r.Metrics, "first", fmt.Sprintf("rep-%d", rep+1))...)
			}
			for _, d := range endToEnd {
				if v, ok := r.Metrics[d.Name]; ok && d.Clock == hostTime {
					wr.Reps[d.Name] = append(wr.Reps[d.Name], v)
				}
			}
		}
		wr.Failed, wr.Samples = first.Failed, first.Samples
		for _, d := range endToEnd {
			if v, ok := first.Metrics[d.Name]; ok {
				wr.EndToEnd[d.Name] = v
			}
			if vs := wr.Reps[d.Name]; len(vs) > 0 {
				wr.EndToEnd[d.Name] = median(vs)
			}
		}
		if o.trace != 0 {
			r, err := child(sp.Name, o, 1)
			if err != nil {
				return fmt.Errorf("%s traced: %w", sp.Name, err)
			}
			wr.PerLayer = r.Metrics
			wr.Problems = append(wr.Problems, r.Problems...)
			wr.Problems = append(wr.Problems, inexact(first.Metrics, r.Metrics, "untraced", "traced")...)
		}

		fmt.Printf("\n== %s: %d ops, %d failed ==\n", wr.Name, wr.Ops, wr.Failed)
		printMetrics(os.Stdout, wr.EndToEnd, wr.Samples)
		if wr.PerLayer != nil {
			printShares(os.Stdout, wr.PerLayer)
			printMetrics(os.Stdout, wr.PerLayer, nil)
		}
		for _, p := range wr.Problems {
			fmt.Println("FAILED CHECK:", p)
		}
		failedChecks += len(wr.Problems)
		set.Workloads = append(set.Workloads, wr)
	}
	if o.out != "" {
		if err := writeJSON(o.out, set); err != nil {
			return err
		}
	}
	if failedChecks > 0 {
		return fmt.Errorf("%d correctness checks failed", failedChecks)
	}
	return nil
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printMetrics prints every metric by name with its value, unit, clock
// and — for percentiles — the sample count behind it.  End-to-end
// metrics come first, in catalogue order.
func printMetrics(w io.Writer, m metrics, samples map[string]int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	row := func(d metric) {
		v, ok := m[d.Name]
		if !ok {
			return
		}
		note := string(d.Clock)
		if n := samples[d.Name]; n > 0 {
			note += fmt.Sprintf(", %d samples", n)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t(%s)\n", d.Name, formatValue(v), d.Unit, note)
	}
	for _, d := range endToEnd {
		row(d)
	}
	for _, d := range perLayer {
		row(d)
	}
	tw.Flush()
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}

// printShares prints the traced run's wall clock by owner: the one
// line that says which layer a workload's time goes to.  The second
// line moves what the direct-call estimates can explain out of the
// owner it hides in: signing happens inside Do(write), and the
// group-commit fsyncs are timer work that rides on byz deliveries.
// Fsyncs are added to the commit hook, which is where the fragments
// they flush were written.
func printShares(w io.Writer, m metrics) {
	total := m["sim.run_s"]
	if total <= 0 {
		return
	}
	type share struct {
		name string
		s    float64
	}
	line := func(title string, shares []share) {
		sort.SliceStable(shares, func(i, j int) bool { return shares[i].s > shares[j].s })
		fmt.Fprintf(w, "  %s", title)
		for _, sh := range shares {
			if sh.s > 0 {
				fmt.Fprintf(w, "  %s %.1f%%", sh.name, 100*sh.s/total)
			}
		}
		fmt.Fprintln(w)
	}
	var owners []share
	for _, name := range []string{
		"byz.handle_s", "dtree.handle_s", "replica.handle_s", "archive.handle_s",
		"audit.handle_s", "core.handle_s", "unknown.handle_s",
		"core.do_read_s", "core.do_write_s", "core.do_create_s", "replica.on_commit_s",
		"sim.prelude_s",
	} {
		owners = append(owners, share{strings.TrimSuffix(name, "_s"), m[name]})
	}
	line(fmt.Sprintf("traced run %.2fs by owner:", total), owners)

	sign, sync := m["update.sign_est_s"], m["blobstore.sync_est_s"]
	line("with direct-call estimates moved:", []share{
		{"byz.handle-fsync", math.Max(m["byz.handle_s"]-sync, 0)},
		{"replica.on_commit+fsync", m["replica.on_commit_s"] + sync},
		{"core.do_write-sign", math.Max(m["core.do_write_s"]-sign, 0)},
		{"update.sign", sign},
	})
}
