package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured trace record. Engines emit one event per Phase 1
// convergecast wave, per Phase 2 round, per switch reconfiguration, per
// control-word send and per goroutine lifecycle transition; the schema is
// documented in OBSERVABILITY.md. Unused fields marshal away.
type Event struct {
	// TS is the event time in Unix nanoseconds; Emit stamps it when zero.
	TS int64 `json:"ts_ns"`
	// Seq is a per-tracer monotone sequence number, assigned by Emit — the
	// total order of events even when timestamps tie.
	Seq int64 `json:"seq"`
	// Type names the event, e.g. "round.start", "switch.config",
	// "word.send", "goroutine.start".
	Type string `json:"type"`
	// Engine is the emitting engine: "padr", "sim" or "online".
	Engine string `json:"engine,omitempty"`
	// Round is the 0-based Phase 2 round, or -1 outside Phase 2.
	Round int `json:"round"`
	// Node is the tree node the event concerns (0 when not node-scoped).
	Node int `json:"node,omitempty"`
	// Child is the receiving node of a word.send event.
	Child int `json:"child,omitempty"`
	// PE is the processing element for leaf-scoped events (-1 elsewhere,
	// kept explicit because PE 0 is a real leaf).
	PE int `json:"pe,omitempty"`
	// Word is the control word rendered in the paper's notation.
	Word string `json:"word,omitempty"`
	// Config is a switch configuration, e.g. "[l->r p->l]".
	Config string `json:"config,omitempty"`
	// DurNS is the measured duration of span-like events (round.done,
	// phase1.done, run.done) in nanoseconds.
	DurNS int64 `json:"dur_ns,omitempty"`
	// N is a generic count (messages in a wave, comms in a round/batch).
	N int `json:"n,omitempty"`
	// Width is the communication set's link width, stamped on phase1.done
	// and run.done events so trace consumers (internal/audit) can check the
	// round-count theorems without access to the engine.
	Width int `json:"width,omitempty"`
	// Mode is the power accounting mode ("stateful"/"stateless"), stamped
	// on run.start so a replayed ledger bills reconfigurations correctly.
	Mode string `json:"mode,omitempty"`
	// Err carries failure text on *.error events.
	Err string `json:"err,omitempty"`
	// Name is the span name on "span" events (e.g. "serve.request").
	Name string `json:"name,omitempty"`
	// Trace/Span/Parent are 16-hex-digit span-tracing ids. Trace is set on
	// "span" events and stamped onto engine events that run on behalf of a
	// sampled request; Span/Parent only appear on "span" events.
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Status is the HTTP-style status on "span" events (0 elsewhere).
	Status int `json:"status,omitempty"`
}

// Tracer serializes events as JSONL: one JSON object per line, streamed to
// an optional writer and retained in a bounded ring for later download via
// the /trace HTTP endpoint. A nil Tracer no-ops, so engines can emit
// unconditionally.
type Tracer struct {
	mu      sync.Mutex
	w       io.Writer
	ring    [][]byte
	next    int
	wrapped bool
	seq     int64
	dropped int64
	evicted int64
	// evictedC, when attached via Instrument, mirrors evicted as the
	// cst_obs_trace_dropped_total series so ring overwrites are visible on
	// /metrics instead of silent.
	evictedC *Counter
	// sink, when set, receives every event synchronously after sequence
	// assignment — the live tap the audit layer consumes. hasSink mirrors
	// sink != nil for Streaming, which reads it without the lock.
	sink    func(Event)
	hasSink atomic.Bool

	// Span-tracing state (see span.go). sampleTh is the head-sampling
	// threshold over the full uint64 range (0 = never, MaxUint64 = always);
	// idState drives the splitmix64 id generator; flight holds the attached
	// flight recorder (a pointer-to-pointer so detaching stores nil cleanly).
	sampleTh atomic.Uint64
	idState  atomic.Uint64
	flight   atomic.Pointer[*FlightRecorder]
}

// DefaultRingSize bounds the tracer's in-memory event ring; ~64k events is
// minutes of engine activity at a few hundred bytes each.
const DefaultRingSize = 1 << 16

// NewTracer builds a tracer. w may be nil (ring-only); ringSize <= 0 uses
// DefaultRingSize.
func NewTracer(w io.Writer, ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	t := &Tracer{w: w, ring: make([][]byte, ringSize)}
	t.idState.Store(uint64(time.Now().UnixNano()))
	return t
}

// Emit records one event. Safe for concurrent use; nil-safe.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if e.TS == 0 {
		e.TS = time.Now().UnixNano()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	e.Seq = t.seq
	if t.sink != nil {
		t.sink(e)
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.dropped++
		return
	}
	b = append(b, '\n')
	if t.ring[t.next] != nil {
		// Overwriting an event nobody downloaded yet: count the eviction so
		// a scraper polling /trace can tell its view has holes.
		t.evicted++
		t.evictedC.Inc()
	}
	t.ring[t.next] = b
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	if t.w != nil {
		if _, err := t.w.Write(b); err != nil {
			t.dropped++
		}
	}
}

// SetSink installs fn as the tracer's live event tap: every Emit calls it
// synchronously (under the tracer lock, with Seq and TS assigned) in
// emission order. Pass nil to detach. The audit layer attaches its Observe
// method here; fn must not call back into the tracer.
func (t *Tracer) SetSink(fn func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = fn
	t.hasSink.Store(fn != nil)
}

// Streaming reports whether emitted events reach a consumer beyond the
// ring: a sink installed with SetSink, or the writer given to NewTracer.
// A caller may skip events that only the ring would hold. It takes no
// lock (the writer is fixed at construction); a nil Tracer reports false.
func (t *Tracer) Streaming() bool {
	return t != nil && (t.w != nil || t.hasSink.Load())
}

// Instrument publishes the tracer's ring-eviction count to r as
// cst_obs_trace_dropped_total. Nil-safe on both sides.
func (t *Tracer) Instrument(r *Registry) {
	if t == nil || r == nil {
		return
	}
	c := r.Counter("cst_obs_trace_dropped_total",
		"trace events evicted from the ring buffer before being downloaded")
	t.mu.Lock()
	defer t.mu.Unlock()
	c.Add(t.evicted)
	t.evictedC = c
}

// Events returns how many events have been emitted.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Dropped returns how many events failed to serialize or stream.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Evicted returns how many events the ring overwrote before they were ever
// downloaded (the cst_obs_trace_dropped_total quantity).
func (t *Tracer) Evicted() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// WriteJSONL dumps the retained ring, oldest first, as JSON lines.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	_, err := t.WriteJSONLSince(w, 0)
	return err
}

// WriteJSONLSince dumps the retained events with Seq > since, oldest first,
// as JSON lines — the incremental-polling contract behind /trace?since=N: a
// scraper remembers the last seq it saw and asks only for the tail. since
// <= 0 dumps the whole ring. It returns the cursor for the next poll: the
// Seq of the newest event written, or since itself when nothing qualified.
// Events older than the ring are gone; the cst_obs_trace_dropped_total
// counter says how many.
func (t *Tracer) WriteJSONLSince(w io.Writer, since int64) (int64, error) {
	buf, last := t.TailSince(since)
	_, err := w.Write(buf)
	return last, err
}

// TailSince returns the retained events with Seq > since, oldest first and
// concatenated as JSON lines, plus the resume cursor: the Seq of the newest
// event included, or since itself when nothing qualified. The capture is
// atomic with respect to Emit, so the cursor never trails the returned
// lines — an event emitted concurrently either appears in the tail (and the
// cursor covers it) or waits whole for the next poll. Computing the cursor
// from Events() instead would race: events landing between that read and
// the ring capture would be delivered beyond the advertised cursor and then
// re-delivered on the next poll.
func (t *Tracer) TailSince(since int64) ([]byte, int64) {
	if t == nil {
		return nil, since
	}
	t.mu.Lock()
	var lines [][]byte
	if t.wrapped {
		lines = append(lines, t.ring[t.next:]...)
	}
	lines = append(lines, t.ring[:t.next]...)
	// The ring is sequential: the retained events are exactly seqs
	// t.seq-len(lines)+1 .. t.seq, oldest first, so "Seq > since" is a
	// prefix skip — no per-line decoding needed.
	if since > 0 {
		oldest := t.seq - int64(len(lines)) + 1
		skip := since - oldest + 1
		if skip >= int64(len(lines)) {
			lines = nil
		} else if skip > 0 {
			lines = lines[skip:]
		}
	}
	last := since
	if len(lines) > 0 {
		// The tail always ends at the newest retained event.
		last = t.seq
	}
	// Copy out under the lock so emission can continue while the caller
	// writes.
	buf := make([]byte, 0, 256*len(lines))
	for _, l := range lines {
		buf = append(buf, l...)
	}
	t.mu.Unlock()
	return buf, last
}
