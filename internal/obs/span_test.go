package obs

import (
	"testing"
	"time"
)

func TestTraceHeaderRoundTrip(t *testing.T) {
	in := SpanContext{Trace: 0xab, Span: 0xcd, Sampled: true}
	h := FormatTraceHeader(in)
	if h != "00000000000000ab-00000000000000cd-01" {
		t.Fatalf("header = %q", h)
	}
	out, ok := ParseTraceHeader(h)
	if !ok || out != in {
		t.Fatalf("round trip = %+v ok=%v, want %+v", out, ok, in)
	}
	if h := FormatTraceHeader(SpanContext{}); h != "" {
		t.Errorf("zero context formats %q, want empty", h)
	}
	for _, bad := range []string{
		"", "xyz",
		"00000000000000ab_00000000000000cd-01",
		"000000000000000g-00000000000000cd-01",
		"0000000000000000-00000000000000cd-01", // zero trace id
	} {
		if _, ok := ParseTraceHeader(bad); ok {
			t.Errorf("ParseTraceHeader(%q) accepted", bad)
		}
	}
}

func TestStartServerSamplingPolicy(t *testing.T) {
	tr := NewTracer(nil, 16)

	// Rate 0: no head samples, but a sampled remote context forces it and
	// keeps the remote trace id.
	tr.SetSampleRate(0)
	if sp := tr.StartServer("s", "serve", SpanContext{}); sp.Sampled() {
		t.Error("sampled at rate 0 with no remote context")
	}
	remote := SpanContext{Trace: 7, Span: 9, Sampled: true}
	sp := tr.StartServer("s", "serve", remote)
	if !sp.Sampled() || sp.Context().Trace != 7 {
		t.Fatalf("propagated context not honored: %+v", sp.Context())
	}
	if sp.Context().Span == 9 {
		t.Error("server span id must be fresh, not the remote's")
	}

	// Rate 1: everything samples, minting a trace id when none was sent.
	tr.SetSampleRate(1)
	sp = tr.StartServer("s", "serve", SpanContext{})
	if !sp.Sampled() || sp.Context().Trace == 0 {
		t.Fatalf("rate-1 root: %+v", sp.Context())
	}

	// An unsampled remote context (flags 00) does not force sampling.
	tr.SetSampleRate(0)
	if sp := tr.StartServer("s", "serve", SpanContext{Trace: 7, Span: 9}); sp.Sampled() {
		t.Error("unsampled remote context forced sampling")
	}

	// Children of a zero span are zero; End on them no-ops.
	var zero Span
	child := tr.StartSpan(zero.Context(), "c", "serve")
	if child.Sampled() {
		t.Error("child of unsampled parent is sampled")
	}
	child.End()
}

// A propagated root (non-zero Parent, Root flag set) must finalize its
// trace, and its out-of-process parent must not count as an orphan — while
// a genuinely missing in-tree parent must.
func TestFlightRecorderPropagatedRoot(t *testing.T) {
	f := NewFlightRecorder(4)
	now := time.Now()

	f.observe(SpanRecord{Trace: 1, Span: 20, Parent: 10, Name: "serve.queue",
		Start: now, End: now.Add(time.Millisecond)})
	f.observe(SpanRecord{Trace: 1, Span: 10, Parent: 99, Root: true, Name: "http.schedule",
		Start: now, End: now.Add(2 * time.Millisecond), Status: 200})

	snap := f.Snapshot()
	if snap.Finished != 1 || snap.OpenTraces != 0 {
		t.Fatalf("finished=%d open=%d, want 1/0", snap.Finished, snap.OpenTraces)
	}
	if snap.OrphanSpans != 0 {
		t.Fatalf("remote parent counted as orphan: %d", snap.OrphanSpans)
	}
	if len(snap.Slowest) != 1 || snap.Slowest[0].Root != "http.schedule" {
		t.Fatalf("slowest = %+v", snap.Slowest)
	}

	// A child pointing at a span id nowhere in the tree is an orphan.
	f.observe(SpanRecord{Trace: 2, Span: 21, Parent: 555, Name: "serve.queue",
		Start: now, End: now.Add(time.Millisecond)})
	f.observe(SpanRecord{Trace: 2, Span: 11, Root: true, Name: "http.schedule",
		Start: now, End: now.Add(2 * time.Millisecond), Status: 200})
	if snap := f.Snapshot(); snap.OrphanSpans != 1 {
		t.Fatalf("orphan not detected: %d", snap.OrphanSpans)
	}
}

func TestFlightRecorderErrorsAndSlowestK(t *testing.T) {
	f := NewFlightRecorder(2)
	now := time.Now()
	durs := []time.Duration{5, 1, 9, 3} // ms; k=2 keeps 9 and 5
	for i, d := range durs {
		rec := SpanRecord{Trace: TraceID(i + 1), Span: SpanID(100 + i), Root: true,
			Name: "wire.schedule", Start: now, End: now.Add(d * time.Millisecond), Status: 200}
		if i == 1 {
			rec.Status, rec.Err = 500, "quarantined"
		}
		f.observe(rec)
	}
	snap := f.Snapshot()
	if len(snap.Slowest) != 2 || snap.Slowest[0].DurNS < snap.Slowest[1].DurNS {
		t.Fatalf("slowest = %+v", snap.Slowest)
	}
	if got := snap.Slowest[0].DurNS; got != (9 * time.Millisecond).Nanoseconds() {
		t.Fatalf("slowest[0] = %dns", got)
	}
	if len(snap.Errors) != 1 || snap.Errors[0].Err != "quarantined" {
		t.Fatalf("errors = %+v", snap.Errors)
	}
}

func TestEmitErrorRootReachesFlight(t *testing.T) {
	tr := NewTracer(nil, 16)
	tr.SetSampleRate(0)
	f := NewFlightRecorder(2)
	tr.SetFlight(f)
	ctx := tr.EmitErrorRoot("http.schedule", "serve", time.Now(), 400, "bad json")
	if !ctx.Valid() {
		t.Fatalf("error root context invalid: %+v", ctx)
	}
	snap := f.Snapshot()
	if len(snap.Errors) != 1 || snap.Errors[0].Status != 400 {
		t.Fatalf("errors = %+v", snap.Errors)
	}
	if snap.Errors[0].Trace != ctx.Trace.String() {
		t.Fatalf("trace %s, want %s", snap.Errors[0].Trace, ctx.Trace)
	}
}

// TestUnsampledSpansAreFree pins the unsampled fast path the wire writer
// takes for every frame: a child of a zero or unsampled context, or of a
// nil tracer, is the zero span, and opening and ending it allocates
// nothing and emits nothing.
func TestUnsampledSpansAreFree(t *testing.T) {
	tr := NewTracer(nil, 16)
	var none *Tracer
	unsampled := SpanContext{Trace: 7, Span: 9}
	for _, c := range []struct {
		tr     *Tracer
		parent SpanContext
	}{{tr, SpanContext{}}, {tr, unsampled}, {none, SpanContext{Trace: 7, Span: 9, Sampled: true}}} {
		if sp := c.tr.StartSpan(c.parent, "response.write", "serve"); sp != (Span{}) {
			t.Errorf("StartSpan(%+v) = %+v, want the zero span", c.parent, sp)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartSpan(unsampled, "response.write", "serve")
		sp.End()
		zero := Span{}
		zero.End()
	})
	if allocs != 0 {
		t.Errorf("unsampled StartSpan+End allocated %.1f times, want 0", allocs)
	}
	if got := tr.Events(); got != 0 {
		t.Errorf("unsampled spans emitted %d events", got)
	}
}
