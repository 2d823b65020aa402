package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// compareFiles prints, per workload and metric, both result sets'
// values and how much worse b is than a, and returns an error if any
// end-to-end metric worsened beyond its bound or — when the two sets
// share a seed and run size — any virtual-time metric or count differs
// at all.  Per-layer host-time spans have no bound: they are printed
// to explain a move, never to fail one.
func compareFiles(w io.Writer, aPath, bPath string) error {
	var a, b resultSet
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	sameInputs := a.Seed == b.Seed && a.Seconds == b.Seconds
	fmt.Fprintf(w, "a: %s  seed %d, %d s, GOMAXPROCS=%d GOGC=%d\n", aPath, a.Seed, a.Seconds, a.Env.GOMAXPROCS, a.Env.GOGC)
	fmt.Fprintf(w, "b: %s  seed %d, %d s, GOMAXPROCS=%d GOGC=%d\n", bPath, b.Seed, b.Seconds, b.Env.GOMAXPROCS, b.Env.GOGC)
	if !sameInputs {
		fmt.Fprintln(w, "different seed or run size: virtual-time metrics and counts are compared by bound, not for equality")
	}

	flagged := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "\n== %s: missing from b ==\n", wa.Name)
			flagged++
			continue
		}
		fmt.Fprintf(w, "\n== %s ==\n", wa.Name)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\ta\tb\tworse by\tbound\t")
		for _, list := range []struct {
			defs []metric
			a, b metrics
		}{{endToEnd, wa.EndToEnd, wb.EndToEnd}, {perLayer, wa.PerLayer, wb.PerLayer}} {
			for _, d := range list.defs {
				av, inA := list.a[d.Name]
				bv, inB := list.b[d.Name]
				if !inA && !inB {
					continue
				}
				verdict := ""
				worse := d.worsening(av, bv)
				switch {
				case inA != inB:
					verdict = "MEASURED IN ONE SET ONLY"
				case d.Clock.exact() && sameInputs && av != bv:
					verdict = "NOT EXACT"
				case d.Bound > 0 && worse > d.Bound:
					verdict = "REGRESSION"
				}
				if verdict != "" {
					flagged++
				}
				fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\t%s\n", d.Name, formatValue(av), formatValue(bv),
					formatWorse(d, worse), formatBound(d), verdict)
			}
		}
		tw.Flush()
		if wa.Failed != wb.Failed {
			fmt.Fprintf(w, "  failed ops: %d -> %d\n", wa.Failed, wb.Failed)
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound or were not exact", flagged)
	}
	fmt.Fprintln(w, "\nno metric beyond its bound")
	return nil
}

func formatWorse(d metric, worse float64) string {
	if d.Abs {
		return fmt.Sprintf("%+.4f", worse)
	}
	return fmt.Sprintf("%+.2f%%", 100*worse)
}

func formatBound(d metric) string {
	switch {
	case d.Bound == 0:
		return "-"
	case d.Abs:
		return fmt.Sprintf("+%g", d.Bound)
	}
	return fmt.Sprintf("%g%%", 100*d.Bound)
}
