package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// Event is one traced protocol event.  T is virtual time in
// nanoseconds; Node is where the event happened, Peer the other
// endpoint (-1 when there is none).  ID correlates the events of one
// message or retrieval (simnet message IDs, archive retrieval IDs).
//
// Field order is the JSONL column order — encoding/json emits struct
// fields in declaration order, which is what makes the export
// byte-stable.  Node and Peer deliberately lack omitempty: node 0 is a
// real node.
type Event struct {
	T     int64  `json:"t"`
	Node  int    `json:"node"`
	Peer  int    `json:"peer"`
	Layer string `json:"layer"`
	Event string `json:"event"`
	ID    uint64 `json:"id,omitempty"`
	Kind  string `json:"kind,omitempty"`
	Bytes int    `json:"bytes,omitempty"`
}

// DefaultTraceCap bounds a tracer ring when no capacity is given.
const DefaultTraceCap = 1 << 16

// Tracer is a bounded ring of events.  Like a Registry it belongs to
// one simulator and is filled in virtual-time order; when the ring
// wraps, the oldest events are discarded and counted.  The bound keeps
// tracing opt-in cheap: a long soak cannot grow memory without limit.
type Tracer struct {
	capacity int
	buf      []Event
	start    int // index of the oldest event once the ring is full
	dropped  uint64
}

// NewTracer creates a tracer holding up to capacity events
// (DefaultTraceCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{capacity: capacity}
}

// Emit appends one event; a nil tracer is a no-op.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if len(t.buf) < t.capacity {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.start] = e
	t.start = (t.start + 1) % t.capacity
	t.dropped++
}

// Len returns how many events the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped returns how many events the ring has discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the retained events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.start:]...)
	out = append(out, t.buf[:t.start]...)
	return out
}

// Append re-emits every event of o into t, in o's order — how a sweep
// driver folds per-cell tracers into one stream, cell by cell in grid
// order (the par ordered-merge discipline).
func (t *Tracer) Append(o *Tracer) {
	if t == nil || o == nil {
		return
	}
	for _, e := range o.Events() {
		t.Emit(e)
	}
	t.dropped += o.dropped
}

// WriteJSONL writes one JSON object per line in emission order.  The
// encoding is deterministic (fixed field order, integer fields), so
// two runs with the same seed produce byte-identical output at any
// GOMAXPROCS — the golden-trace tests pin this.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, e := range t.Events() {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
