// Command coverfloor gates per-package test coverage against a
// checked-in floors file, so coverage can only ratchet up.
//
// Usage:
//
//	go test -race -cover ./... | coverfloor -floors cover/FLOORS.txt
//	go test -race -cover ./... | coverfloor -floors cover/FLOORS.txt -write [-slack 2.0]
//
// The suite's output passes through to stdout, and a suite that
// reports a FAIL line (a failing test, a race, a build error) fails
// both modes, so one pipeline is the test run and the coverage gate.
//
// Check mode (default) parses `go test -cover` output from stdin and
// fails if any package listed in the floors file is below its floor or
// missing from the run.  Packages without test files, and new packages
// not yet in the floors file, pass — add them with -write when they
// gain tests.
//
// Write mode records the current measurements minus -slack percentage
// points (a noise margin for coverage that shifts with build tags or
// map iteration in tests) as the new floors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var coverLine = regexp.MustCompile(`^ok\s+(\S+)\s+.*coverage:\s+([0-9.]+)% of statements`)

// parseMeasured echoes the suite's output and collects each package's
// coverage; suiteFailed reports a FAIL line anywhere in it.
func parseMeasured(r *bufio.Scanner) (measured map[string]float64, suiteFailed bool, err error) {
	measured = make(map[string]float64)
	for r.Scan() {
		line := r.Text()
		fmt.Println(line)
		suiteFailed = suiteFailed || strings.HasPrefix(line, "FAIL")
		m := coverLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pct, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, false, fmt.Errorf("bad coverage %q: %v", m[2], err)
		}
		measured[m[1]] = pct
	}
	return measured, suiteFailed, r.Err()
}

func readFloors(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	floors := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: bad line %q", path, line)
		}
		pct, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad floor %q: %v", path, fields[1], err)
		}
		floors[fields[0]] = pct
	}
	return floors, sc.Err()
}

func writeFloors(path string, measured map[string]float64, slack float64) error {
	pkgs := make([]string, 0, len(measured))
	for p := range measured {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	var b strings.Builder
	b.WriteString("# Per-package coverage floors (percent of statements).\n")
	b.WriteString("# Regenerate with: make cover-write\n")
	for _, p := range pkgs {
		floor := measured[p] - slack
		if floor < 0 {
			floor = 0
		}
		fmt.Fprintf(&b, "%s %.1f\n", p, floor)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func main() {
	floorsPath := flag.String("floors", "cover/FLOORS.txt", "floors file to check against or write")
	write := flag.Bool("write", false, "record current coverage (minus slack) as the new floors")
	slack := flag.Float64("slack", 2.0, "noise margin subtracted when writing floors, in points")
	flag.Parse()

	measured, suiteFailed, err := parseMeasured(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "coverfloor: %v\n", err)
		os.Exit(1)
	}
	if suiteFailed {
		fmt.Fprintln(os.Stderr, "coverfloor: the test suite failed")
		os.Exit(1)
	}
	if len(measured) == 0 {
		fmt.Fprintln(os.Stderr, "coverfloor: no coverage lines on stdin (pipe `go test -cover ./...`)")
		os.Exit(1)
	}
	if *write {
		if err := writeFloors(*floorsPath, measured, *slack); err != nil {
			fmt.Fprintf(os.Stderr, "coverfloor: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("coverfloor: wrote %d floors to %s\n", len(measured), *floorsPath)
		return
	}
	floors, err := readFloors(*floorsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coverfloor: %v (run `make cover-write` to create it)\n", err)
		os.Exit(1)
	}
	pkgs := make([]string, 0, len(floors))
	for p := range floors {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	failed := 0
	for _, p := range pkgs {
		floor := floors[p]
		got, ok := measured[p]
		switch {
		case !ok:
			fmt.Printf("FAIL %-44s no coverage reported (floor %.1f%%) — package or its tests vanished\n", p, floor)
			failed++
		case got < floor:
			fmt.Printf("FAIL %-44s %.1f%% < floor %.1f%%\n", p, got, floor)
			failed++
		default:
			fmt.Printf("ok   %-44s %.1f%% >= %.1f%%\n", p, got, floor)
		}
	}
	for p := range measured {
		if _, ok := floors[p]; !ok {
			fmt.Printf("new  %-44s %.1f%% (no floor yet; `make cover-write` to ratchet)\n", p, measured[p])
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "coverfloor: %d package(s) under their floor\n", failed)
		os.Exit(1)
	}
}
