package obs

import (
	"strconv"
	"strings"
	"time"
)

// Span tracing: request-scoped timing trees recorded into the tracer ring
// as typed "span" events. The design is allocation-conscious: Span is a
// value type, an unsampled Span is the zero value and every method on it
// no-ops, so instrumented hot paths pay one branch — no allocation, no
// atomic — when a request is not sampled. Sampling is head-based (the
// decision is made once, at the transport edge, and propagated), with
// transports additionally emitting retroactive root spans for errored
// requests so failures are always attributable even at low sample rates.

// TraceID identifies one request's span tree across protocol hops.
// Rendered as 16 lowercase hex digits; zero means "no trace".
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no span" — a
// span whose Parent is zero is the root of its trace.
type SpanID uint64

// String renders the id as 16 hex digits ("" for zero).
func (id TraceID) String() string { return hexID(uint64(id)) }

// String renders the id as 16 hex digits ("" for zero).
func (id SpanID) String() string { return hexID(uint64(id)) }

func hexID(v uint64) string {
	if v == 0 {
		return ""
	}
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = "0123456789abcdef"[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// ParseTraceID parses a 16-hex-digit id; ok is false on malformed input
// or the zero id.
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return TraceID(v), true
}

// SpanContext is the propagated trace state: which trace a request belongs
// to, the id of the current (parent) span, and whether the trace is
// sampled. The zero value is "not traced". It is a small value type so it
// can ride inside pooled request structs without allocating.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context names a sampled, recordable trace.
func (c SpanContext) Valid() bool { return c.Sampled && c.Trace != 0 }

// TraceHeader is the HTTP header carrying a SpanContext across process
// boundaries: "<trace:16hex>-<span:16hex>-<flags:2hex>", flags bit 0 =
// sampled. The same triple rides in every wire-protocol request frame.
const TraceHeader = "X-CST-Trace"

// FormatTraceHeader renders ctx in TraceHeader syntax ("" when no trace).
func FormatTraceHeader(c SpanContext) string {
	if c.Trace == 0 {
		return ""
	}
	flags := "00"
	if c.Sampled {
		flags = "01"
	}
	var sb strings.Builder
	sb.Grow(36)
	sb.WriteString(hexOrZero(uint64(c.Trace)))
	sb.WriteByte('-')
	sb.WriteString(hexOrZero(uint64(c.Span)))
	sb.WriteByte('-')
	sb.WriteString(flags)
	return sb.String()
}

func hexOrZero(v uint64) string {
	if v == 0 {
		return "0000000000000000"
	}
	return hexID(v)
}

// ParseTraceHeader parses TraceHeader syntax. A malformed value yields
// (zero, false) — callers fall back to a locally rooted trace.
func ParseTraceHeader(s string) (SpanContext, bool) {
	if len(s) != 36 || s[16] != '-' || s[33] != '-' {
		return SpanContext{}, false
	}
	trace, ok := ParseTraceID(s[:16])
	if !ok {
		return SpanContext{}, false
	}
	span, err := strconv.ParseUint(s[17:33], 16, 64)
	if err != nil {
		return SpanContext{}, false
	}
	flags, err := strconv.ParseUint(s[34:36], 16, 8)
	if err != nil {
		return SpanContext{}, false
	}
	return SpanContext{Trace: trace, Span: SpanID(span), Sampled: flags&1 != 0}, true
}

// SpanRecord is one finished span, emitted retrospectively (at end time)
// so queue waits and dispatch windows can be recorded without holding an
// open-span object across goroutines.
type SpanRecord struct {
	Trace  TraceID
	Span   SpanID
	Parent SpanID // zero for a locally rooted span; the remote span id when propagated
	// Root marks the server-side root of this process's subtree. A root's
	// Parent may be non-zero (the caller's span id, propagated across the
	// transport): the tree is complete locally even though the parent span
	// lives in another process.
	Root   bool
	Name   string // e.g. "serve.request", "hybrid.peel"
	Engine string // emitting layer: "serve", "online", "padr", "hybrid"
	Start  time.Time
	End    time.Time
	Status int    // HTTP-style status (0 when not applicable)
	N      int    // generic count attribute (batch size, rounds, …)
	Err    string // failure text; non-empty marks the span errored
}

// Span is an in-flight timed operation. It is a value type: keep it on the
// stack, call End (or EndAt) exactly once. The zero Span (unsampled or nil
// tracer) no-ops throughout.
type Span struct {
	tr     *Tracer
	ctx    SpanContext
	parent SpanID
	root   bool
	name   string
	engine string
	start  time.Time
	status int
	n      int
	errs   string
}

// Context returns the span's context — pass it to children.
func (s *Span) Context() SpanContext { return s.ctx }

// Sampled reports whether the span records anything.
func (s *Span) Sampled() bool { return s.tr != nil && s.ctx.Sampled }

// SetStatus attaches an HTTP-style status code.
func (s *Span) SetStatus(code int) { s.status = code }

// SetN attaches a generic count (batch size, rounds, …).
func (s *Span) SetN(n int) { s.n = n }

// SetError marks the span errored.
func (s *Span) SetError(msg string) { s.errs = msg }

// End emits the span with end time now.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt emits the span with an explicit end time.
func (s *Span) EndAt(end time.Time) {
	if s.tr == nil || !s.ctx.Sampled {
		return
	}
	s.tr.EmitSpan(SpanRecord{
		Trace:  s.ctx.Trace,
		Span:   s.ctx.Span,
		Parent: s.parent,
		Root:   s.root,
		Name:   s.name,
		Engine: s.engine,
		Start:  s.start,
		End:    end,
		Status: s.status,
		N:      s.n,
		Err:    s.errs,
	})
	s.tr = nil // double-End no-ops
}

// splitmix64 is the id generator's output function: a strong 64-bit mixer
// over a Weyl sequence — no allocation, no locking beyond one atomic add.
func splitmix64(x uint64) uint64 {
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const weylStep = 0x9e3779b97f4a7c15

// nextID draws a non-zero pseudo-random 64-bit id.
func (t *Tracer) nextID() uint64 {
	for {
		if v := splitmix64(t.idState.Add(weylStep)); v != 0 {
			return v
		}
	}
}

// NewTraceID draws a fresh trace id (0 on nil tracer).
func (t *Tracer) NewTraceID() TraceID {
	if t == nil {
		return 0
	}
	return TraceID(t.nextID())
}

// NewSpanID draws a fresh span id (0 on nil tracer).
func (t *Tracer) NewSpanID() SpanID {
	if t == nil {
		return 0
	}
	return SpanID(t.nextID())
}

// SetSampleRate sets the head-sampling probability in [0, 1]. 0 disables
// head sampling (errored requests are still recorded retroactively); 1
// samples everything. Nil-safe.
func (t *Tracer) SetSampleRate(rate float64) {
	if t == nil {
		return
	}
	var th uint64
	switch {
	case rate <= 0:
		th = 0
	case rate >= 1:
		th = ^uint64(0)
	default:
		th = uint64(rate * float64(1<<63) * 2)
	}
	t.sampleTh.Store(th)
}

// SampleRate returns the approximate configured head-sampling probability.
func (t *Tracer) SampleRate() float64 {
	if t == nil {
		return 0
	}
	th := t.sampleTh.Load()
	if th == ^uint64(0) {
		return 1
	}
	return float64(th) / (float64(1<<63) * 2)
}

// headSample makes one head-sampling decision.
func (t *Tracer) headSample() bool {
	th := t.sampleTh.Load()
	if th == 0 {
		return false
	}
	if th == ^uint64(0) {
		return true
	}
	return t.nextID() < th
}

// StartServer opens the root (or propagation-continuation) span for one
// inbound request. A remote context with the sampled flag set forces
// sampling so cross-protocol trees stay connected; otherwise the head
// decision applies, adopting the remote trace id when one was sent.
// Returns the zero Span when unsampled — callers pass its Context() along
// unconditionally.
func (t *Tracer) StartServer(name, engine string, remote SpanContext) Span {
	if t == nil {
		return Span{}
	}
	if !remote.Sampled && !t.headSample() {
		return Span{}
	}
	trace := remote.Trace
	if trace == 0 {
		trace = t.NewTraceID()
	}
	return Span{
		tr:     t,
		ctx:    SpanContext{Trace: trace, Span: t.NewSpanID(), Sampled: true},
		parent: remote.Span,
		root:   true,
		name:   name,
		engine: engine,
		start:  time.Now(),
	}
}

// StartSpan opens a child span under parent; zero Span when the parent is
// unsampled.
func (t *Tracer) StartSpan(parent SpanContext, name, engine string) Span {
	return t.StartSpanAt(parent, name, engine, time.Now())
}

// StartSpanAt opens a child span with an explicit start time — for spans
// whose beginning (enqueue, flush start) predates the instrumentation
// point that emits them.
func (t *Tracer) StartSpanAt(parent SpanContext, name, engine string, start time.Time) Span {
	if t == nil || !parent.Valid() {
		return Span{}
	}
	return Span{
		tr:     t,
		ctx:    SpanContext{Trace: parent.Trace, Span: t.NewSpanID(), Sampled: true},
		parent: parent.Span,
		name:   name,
		engine: engine,
		start:  start,
	}
}

// EmitErrorRoot retroactively records a single root span for an errored
// request that was not head-sampled — the always-sample-on-error half of
// the sampling policy. Returns the trace context so the transport can echo
// the trace id to the client. Nil-safe (returns the zero context).
func (t *Tracer) EmitErrorRoot(name, engine string, start time.Time, status int, errmsg string) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	ctx := SpanContext{Trace: t.NewTraceID(), Span: t.NewSpanID(), Sampled: true}
	t.EmitSpan(SpanRecord{
		Trace:  ctx.Trace,
		Span:   ctx.Span,
		Root:   true,
		Name:   name,
		Engine: engine,
		Start:  start,
		End:    time.Now(),
		Status: status,
		Err:    errmsg,
	})
	return ctx
}

// EmitSpan records one finished span into the event ring as a typed
// "span" event and forwards it to the attached FlightRecorder. Nil-safe.
func (t *Tracer) EmitSpan(rec SpanRecord) {
	if t == nil {
		return
	}
	t.Emit(Event{
		TS:     rec.End.UnixNano(),
		Type:   "span",
		Engine: rec.Engine,
		Round:  -1,
		Name:   rec.Name,
		Trace:  rec.Trace.String(),
		Span:   rec.Span.String(),
		Parent: rec.Parent.String(),
		Status: rec.Status,
		DurNS:  rec.End.Sub(rec.Start).Nanoseconds(),
		N:      rec.N,
		Err:    rec.Err,
	})
	if f := t.Flight(); f != nil {
		f.observe(rec)
	}
}

// SetFlight attaches (or detaches, with nil) a flight recorder: every
// EmitSpan forwards the record to it, outside the tracer lock.
func (t *Tracer) SetFlight(f *FlightRecorder) {
	if t == nil {
		return
	}
	t.flight.Store(&f)
}

// Flight returns the attached flight recorder (nil when none).
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	if p := t.flight.Load(); p != nil {
		return *p
	}
	return nil
}
