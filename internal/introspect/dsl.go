// Package introspect implements OceanStore's introspection layer
// (paper §4.7, Figures 7 and 8): observation modules that summarise
// event streams through a restricted domain-specific language, a
// hierarchical aggregation path that forwards summaries toward parent
// nodes, and the optimization modules built on top — cluster
// recognition, replica management, and predictive prefetching.
package introspect

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Event is one observed occurrence: a name (e.g. "access", "message")
// and numeric fields.  The high event rate precludes heavy processing,
// so handlers compiled from the DSL do constant work per event.
type Event struct {
	Name   string
	Fields map[string]float64
}

// The DSL of §4.7.1: s-expressions with primitives for filtering and
// averaging, and *no loops*, making resource consumption per event
// statically bounded.  Example programs:
//
//	(ewma load 0.2)                     smoothed load
//	(when (> (ewma lat 0.5) 100) )      threshold trigger
//	(count (filter (= name access)))    counting matching events
//	(rate 10)                           events per virtual second
//
// Compile validates the program (unknown operators, arity errors, and
// over-deep programs are rejected) and returns a Program; each
// Instance carries its own state (EWMA accumulators, counters).

// maxDepth caps program nesting — the "verification of ... resource
// consumption restrictions placed on event handlers".
const maxDepth = 16

// maxOps caps total operator count per program.
const maxOps = 64

// node is a compiled expression node.
type node struct {
	op       string
	args     []*node
	num      float64
	field    string
	stateIdx int // index into instance state for stateful ops
}

// Program is a compiled, validated handler program.
type Program struct {
	root      *node
	stateSize int
}

// Instance is a running copy of a program with private state.
type Instance struct {
	p     *Program
	state []float64
	init  []bool
}

// Compile parses and validates an s-expression program.
func Compile(src string) (*Program, error) {
	toks := tokenize(src)
	if len(toks) == 0 {
		return nil, errors.New("introspect: empty program")
	}
	p := &Program{}
	root, rest, err := p.parse(toks, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("introspect: trailing tokens %v", rest)
	}
	ops := countOps(root)
	if ops > maxOps {
		return nil, fmt.Errorf("introspect: program has %d ops, limit %d", ops, maxOps)
	}
	p.root = root
	return p, nil
}

// MustCompile panics on error; for static programs in code.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// NewInstance creates an isolated running copy.
func (p *Program) NewInstance() *Instance {
	return &Instance{p: p, state: make([]float64, p.stateSize), init: make([]bool, p.stateSize)}
}

// Feed processes one event, returning the program's value.  For (when
// cond) programs the value is 1 when the trigger fires.
func (in *Instance) Feed(ev Event) float64 {
	return in.eval(in.p.root, ev)
}

func tokenize(src string) []string {
	src = strings.ReplaceAll(src, "(", " ( ")
	src = strings.ReplaceAll(src, ")", " ) ")
	return strings.Fields(src)
}

func (p *Program) parse(toks []string, depth int) (*node, []string, error) {
	if depth > maxDepth {
		return nil, nil, errors.New("introspect: program too deeply nested")
	}
	if len(toks) == 0 {
		return nil, nil, errors.New("introspect: unexpected end of program")
	}
	tok := toks[0]
	toks = toks[1:]
	if tok != "(" {
		if tok == ")" {
			return nil, nil, errors.New("introspect: unexpected ')'")
		}
		if f, err := strconv.ParseFloat(tok, 64); err == nil {
			return &node{op: "num", num: f}, toks, nil
		}
		// Bare identifier: an event field reference (or "name").
		return &node{op: "field", field: tok}, toks, nil
	}
	if len(toks) == 0 {
		return nil, nil, errors.New("introspect: unterminated list")
	}
	op := toks[0]
	toks = toks[1:]
	n := &node{op: op}
	for len(toks) > 0 && toks[0] != ")" {
		arg, rest, err := p.parse(toks, depth+1)
		if err != nil {
			return nil, nil, err
		}
		n.args = append(n.args, arg)
		toks = rest
	}
	if len(toks) == 0 {
		return nil, nil, errors.New("introspect: unterminated list")
	}
	toks = toks[1:] // consume ')'
	if err := p.check(n); err != nil {
		return nil, nil, err
	}
	return n, toks, nil
}

// check validates arity and allocates state for stateful operators.
func (p *Program) check(n *node) error {
	arity := map[string][2]int{ // min, max args
		"+": {2, 8}, "-": {2, 2}, "*": {2, 8}, "/": {2, 2},
		">": {2, 2}, "<": {2, 2}, ">=": {2, 2}, "<=": {2, 2}, "=": {2, 2},
		"and": {2, 8}, "or": {2, 8}, "not": {1, 1},
		"when": {1, 2}, "filter": {2, 2},
		"ewma": {2, 2}, "count": {0, 1}, "sum": {1, 1},
		"min": {1, 1}, "max": {1, 1}, "delta": {1, 1},
	}
	a, ok := arity[n.op]
	if !ok {
		return fmt.Errorf("introspect: unknown operator %q", n.op)
	}
	if len(n.args) < a[0] || len(n.args) > a[1] {
		return fmt.Errorf("introspect: %q takes %d..%d args, got %d", n.op, a[0], a[1], len(n.args))
	}
	switch n.op {
	case "ewma", "count", "sum", "min", "max", "delta":
		n.stateIdx = p.stateSize
		p.stateSize++
	}
	if n.op == "ewma" {
		if n.args[1].op != "num" || n.args[1].num <= 0 || n.args[1].num > 1 {
			return errors.New("introspect: ewma alpha must be a constant in (0,1]")
		}
	}
	return nil
}

func countOps(n *node) int {
	c := 1
	for _, a := range n.args {
		c += countOps(a)
	}
	return c
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (in *Instance) eval(n *node, ev Event) float64 {
	switch n.op {
	case "num":
		return n.num
	case "field":
		return ev.Fields[n.field]
	case "+":
		s := 0.0
		for _, a := range n.args {
			s += in.eval(a, ev)
		}
		return s
	case "-":
		return in.eval(n.args[0], ev) - in.eval(n.args[1], ev)
	case "*":
		s := 1.0
		for _, a := range n.args {
			s *= in.eval(a, ev)
		}
		return s
	case "/":
		d := in.eval(n.args[1], ev)
		if d == 0 {
			return 0
		}
		return in.eval(n.args[0], ev) / d
	case ">":
		return b2f(in.eval(n.args[0], ev) > in.eval(n.args[1], ev))
	case "<":
		return b2f(in.eval(n.args[0], ev) < in.eval(n.args[1], ev))
	case ">=":
		return b2f(in.eval(n.args[0], ev) >= in.eval(n.args[1], ev))
	case "<=":
		return b2f(in.eval(n.args[0], ev) <= in.eval(n.args[1], ev))
	case "=":
		// Special case: (= name foo) compares the event name; anywhere
		// else, name is an ordinary field.
		if n.args[0].op == "field" && n.args[0].field == "name" && n.args[1].op == "field" {
			return b2f(ev.Name == n.args[1].field)
		}
		return b2f(in.eval(n.args[0], ev) == in.eval(n.args[1], ev))
	case "and":
		for _, a := range n.args {
			if in.eval(a, ev) == 0 {
				return 0
			}
		}
		return 1
	case "or":
		for _, a := range n.args {
			if in.eval(a, ev) != 0 {
				return 1
			}
		}
		return 0
	case "not":
		return b2f(in.eval(n.args[0], ev) == 0)
	case "when":
		return in.eval(n.args[0], ev)
	case "filter":
		if in.eval(n.args[0], ev) == 0 {
			return 0
		}
		return in.eval(n.args[1], ev)
	case "ewma":
		x := in.eval(n.args[0], ev)
		alpha := n.args[1].num
		if !in.init[n.stateIdx] {
			in.state[n.stateIdx] = x
			in.init[n.stateIdx] = true
		} else {
			in.state[n.stateIdx] = alpha*x + (1-alpha)*in.state[n.stateIdx]
		}
		return in.state[n.stateIdx]
	case "count":
		if len(n.args) == 1 && in.eval(n.args[0], ev) == 0 {
			return in.state[n.stateIdx]
		}
		in.state[n.stateIdx]++
		return in.state[n.stateIdx]
	case "sum":
		in.state[n.stateIdx] += in.eval(n.args[0], ev)
		return in.state[n.stateIdx]
	case "min":
		x := in.eval(n.args[0], ev)
		if !in.init[n.stateIdx] || x < in.state[n.stateIdx] {
			in.state[n.stateIdx] = x
			in.init[n.stateIdx] = true
		}
		return in.state[n.stateIdx]
	case "max":
		x := in.eval(n.args[0], ev)
		if !in.init[n.stateIdx] || x > in.state[n.stateIdx] {
			in.state[n.stateIdx] = x
			in.init[n.stateIdx] = true
		}
		return in.state[n.stateIdx]
	case "delta":
		x := in.eval(n.args[0], ev)
		prev := in.state[n.stateIdx]
		in.state[n.stateIdx] = x
		if !in.init[n.stateIdx] {
			in.init[n.stateIdx] = true
			return 0
		}
		return x - prev
	}
	return 0
}
