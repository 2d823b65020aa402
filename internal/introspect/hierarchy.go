package introspect

// Summary is the aggregate a node's fast handlers distil from its event
// stream — the contents of the local "database" of Figure 8.  At the
// leaves this state is soft (memory only): durability is deliberately
// loosened to sustain the event rate.
type Summary map[string]float64

// Merge folds another summary into this one by summation; counts and
// byte totals aggregate naturally.  Callers needing averages divide by
// an aggregated count afterwards.
func (s Summary) Merge(o Summary) {
	for k, v := range o {
		s[k] += v
	}
}

// Clone copies a summary.
func (s Summary) Clone() Summary {
	c := make(Summary, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Observer is one node's observation module: a set of named DSL
// handler instances fed by every local event, whose outputs accumulate
// into the local summary.
type Observer struct {
	handlers map[string]*Instance
	db       Summary
	events   int
}

// NewObserver creates an observer with no handlers.
func NewObserver() *Observer {
	return &Observer{handlers: make(map[string]*Instance), db: make(Summary)}
}

// AddHandler registers a compiled program under a summary key: after
// each event, the program's value is written to that key.
func (o *Observer) AddHandler(key string, p *Program) {
	o.handlers[key] = p.NewInstance()
}

// Observe feeds one event through every handler (constant work per
// event) and updates the local database.
func (o *Observer) Observe(ev Event) {
	o.events++
	o.db["events"] = float64(o.events)
	for key, h := range o.handlers {
		o.db[key] = h.Feed(ev)
	}
}

// DB returns the local summary database.
func (o *Observer) DB() Summary { return o.db }

// Hierarchy is the aggregation tree of Figure 8: each node periodically
// forwards an appropriate summary of its knowledge to its parent for
// processing on a wider scale.  Node 0 is the (sub-)root.
type Hierarchy struct {
	parent   []int
	children [][]int
	local    []Summary
}

// NewHierarchy builds a tree over n nodes; parentOf[i] gives node i's
// parent (parentOf[0] is ignored; node 0 is the root).
func NewHierarchy(parentOf []int) *Hierarchy {
	n := len(parentOf)
	h := &Hierarchy{
		parent:   append([]int(nil), parentOf...),
		children: make([][]int, n),
		local:    make([]Summary, n),
	}
	for i := range h.local {
		h.local[i] = make(Summary)
	}
	for i := 1; i < n; i++ {
		p := parentOf[i]
		h.children[p] = append(h.children[p], i)
	}
	return h
}

// SetLocal installs node i's current local summary.
func (h *Hierarchy) SetLocal(i int, s Summary) { h.local[i] = s.Clone() }

// Aggregate computes the rolled-up summary visible at node i: its own
// plus everything forwarded from its subtree.
func (h *Hierarchy) Aggregate(i int) Summary {
	agg := h.local[i].Clone()
	for _, c := range h.children[i] {
		agg.Merge(h.Aggregate(c))
	}
	return agg
}

// GlobalView is the root's approximate global view of the system.
func (h *Hierarchy) GlobalView() Summary { return h.Aggregate(0) }
