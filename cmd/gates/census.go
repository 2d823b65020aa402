package main

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// reachFile lists every function linked into a census program that no
// gates run enters, one per line:
//
//	FILE  FUNCTION  CATEGORY  WHY...
//
// FILE is relative to the repository root and FUNCTION is spelled the
// way `go tool covdata func` spells it.  Line numbers are deliberately
// absent, so moving a function does not touch the list.  Blank lines
// and lines starting with # are comments.
const reachFile = "cover/REACH.txt"

// module is the import-path prefix covdata puts on every file.
const module = "oceanstore/"

// categories are the only reasons a function may stay unreached
// (DESIGN §15).
var categories = map[string]bool{
	"item5": true, // reserved for ROADMAP item 5 (location in measured runs)
	"fault": true, // fault injector
	"test":  true, // test reference
	"paper": true, // paper mechanism: WHY names its § and the test that covers it
}

// paperWhy is what a paper line's WHY must carry: a section sign and a
// test, fuzz target, benchmark or example name.
var paperWhy = regexp.MustCompile(`§.*\b(Test|Fuzz|Benchmark|Example)\w+|\b(Test|Fuzz|Benchmark|Example)\w+.*§`)

// fn names one function the way the census compares them.
type fn struct{ file, name string }

func (f fn) String() string { return f.file + " " + f.name }

// coverage parses `go tool covdata func` output into every function it
// lists and the ones at 0.0 %.
func coverage(out string) (all, unreached map[fn]bool, err error) {
	all, unreached = map[fn]bool{}, map[fn]bool{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] == "total" {
			continue
		}
		if len(f) < 3 || !strings.HasSuffix(f[0], ":") {
			return nil, nil, fmt.Errorf("unexpected covdata line %q", line)
		}
		loc := strings.TrimSuffix(f[0], ":")
		file := strings.TrimPrefix(loc[:strings.LastIndexByte(loc, ':')], module)
		k := fn{file, f[1]}
		all[k] = true
		if f[len(f)-1] == "0.0%" {
			unreached[k] = true
		}
	}
	if len(all) == 0 {
		return nil, nil, fmt.Errorf("covdata listed no functions (were the programs built with -cover?)")
	}
	return all, unreached, nil
}

// parseReach reads the checked-in list, refusing a line without a known
// category, a paper line that does not name its section and test, and
// a function listed twice.
func parseReach(text string) (map[fn]bool, error) {
	listed := map[fn]bool{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			return nil, fmt.Errorf("%s:%d: want FILE FUNCTION CATEGORY WHY, got %q", reachFile, i+1, line)
		}
		if !categories[f[2]] {
			return nil, fmt.Errorf("%s:%d: unknown category %q", reachFile, i+1, f[2])
		}
		if why := strings.Join(f[3:], " "); f[2] == "paper" && !paperWhy.MatchString(why) {
			return nil, fmt.Errorf("%s:%d: a paper mechanism names its § and the test that covers it: %q", reachFile, i+1, why)
		}
		k := fn{f[0], f[1]}
		if listed[k] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", reachFile, i+1, k)
		}
		listed[k] = true
	}
	return listed, nil
}

// census compares what no run reached with what the list allows.  A
// new unreached function fails; so does a stale line — a listed
// function that is now reached or no longer exists — so the list only
// changes where a reviewer sees it.
func census(funcs, reach string) (string, error) {
	all, unreached, err := coverage(funcs)
	if err != nil {
		return "", err
	}
	listed, err := parseReach(reach)
	if err != nil {
		return "", err
	}
	var problems []string
	for k := range unreached {
		if !listed[k] {
			problems = append(problems, fmt.Sprintf("new unreached function %s: reach it, delete it, or list it in %s", k, reachFile))
		}
	}
	for k := range listed {
		switch {
		case !all[k]:
			problems = append(problems, fmt.Sprintf("stale line %s: no such function any more; remove the line", k))
		case !unreached[k]:
			problems = append(problems, fmt.Sprintf("stale line %s: a run reaches it now; remove the line", k))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return "", fmt.Errorf("%d problems:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return fmt.Sprintf("%d of %d functions unreached, each listed in %s", len(unreached), len(all), reachFile), nil
}
