package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// The exposition writer's full output is pinned: lexicographic series
// ordering, HELP/TYPE framing, and the _bucket/_sum/_count histogram shape
// with cumulative bucket counts. Prometheus scrapers parse this by shape,
// so a formatting drift is a real break, not a cosmetic one.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := New()
	// Registered deliberately out of name order: the writer must sort.
	r.Gauge("cst_g_width", "last width").Set(7)
	h := r.Histogram("cst_a_latency_seconds", "latency", []float64{0.5, 2})
	r.Counter("cst_m_rounds_total", "rounds").Add(42)
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(1)
	h.Observe(9)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP cst_a_latency_seconds latency
# TYPE cst_a_latency_seconds histogram
cst_a_latency_seconds_bucket{le="0.5"} 1
cst_a_latency_seconds_bucket{le="2"} 3
cst_a_latency_seconds_bucket{le="+Inf"} 4
cst_a_latency_seconds_sum 11.25
cst_a_latency_seconds_count 4
# HELP cst_g_width last width
# TYPE cst_g_width gauge
cst_g_width 7
# HELP cst_m_rounds_total rounds
# TYPE cst_m_rounds_total counter
cst_m_rounds_total 42
`
	if got := b.String(); got != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// Labeled series — registered as `family{label="v"}` — must group under
// one HELP/TYPE frame per family with the unlabeled aggregate first, merge
// their labels into histogram le= and summary quantile= blocks, and not be
// interleaved with other families by raw-name sorting ('_' sorts before
// '{', so a family named family_x would split family's block under the old
// name ordering).
func TestPrometheusLabeledExpositionGolden(t *testing.T) {
	r := New()
	r.Counter(`cst_s_requests_total{protocol="wire"}`, "requests").Add(3)
	r.Counter("cst_s_requests_total", "requests").Add(5)
	r.Counter(`cst_s_requests_total{protocol="http"}`, "requests").Add(2)
	// Raw-name sorting would wedge this family between cst_s_requests_total
	// and its labeled series.
	r.Counter("cst_s_requests_zz_total", "other family").Add(1)
	h := r.Histogram(`cst_s_latency_seconds{protocol="wire"}`, "latency", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(1)
	sm := r.Summary(`cst_s_latq{protocol="wire"}`, "latency quantiles", 8)
	sm.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP cst_s_latency_seconds latency
# TYPE cst_s_latency_seconds histogram
cst_s_latency_seconds_bucket{protocol="wire",le="0.5"} 1
cst_s_latency_seconds_bucket{protocol="wire",le="2"} 2
cst_s_latency_seconds_bucket{protocol="wire",le="+Inf"} 2
cst_s_latency_seconds_sum{protocol="wire"} 1.25
cst_s_latency_seconds_count{protocol="wire"} 2
# HELP cst_s_latq latency quantiles
# TYPE cst_s_latq summary
cst_s_latq{protocol="wire",quantile="0.5"} 2
cst_s_latq{protocol="wire",quantile="0.9"} 2
cst_s_latq{protocol="wire",quantile="0.99"} 2
cst_s_latq{protocol="wire",quantile="1"} 2
cst_s_latq_sum{protocol="wire"} 2
cst_s_latq_count{protocol="wire"} 1
# HELP cst_s_requests_total requests
# TYPE cst_s_requests_total counter
cst_s_requests_total 5
cst_s_requests_total{protocol="http"} 2
cst_s_requests_total{protocol="wire"} 3
# HELP cst_s_requests_zz_total other family
# TYPE cst_s_requests_zz_total counter
cst_s_requests_zz_total 1
`
	if got := b.String(); got != want {
		t.Errorf("labeled exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Snapshots key by the full registration name, labels included.
	snap := r.Snapshot()
	if snap.Counters[`cst_s_requests_total{protocol="wire"}`] != 3 {
		t.Errorf("labeled counter missing from snapshot: %v", snap.Counters)
	}
}

// Snapshot.Sub must subtract counters and histogram buckets while passing
// gauges through, and leave names present in only one snapshot intact.
func TestSnapshotSubGolden(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", []float64{1})
	c.Add(10)
	g.Set(3)
	h.Observe(0.5)
	before := r.Snapshot()

	c.Add(7)
	g.Set(9)
	h.Observe(0.5)
	h.Observe(5)
	late := r.Counter("late_total", "")
	late.Add(2)

	d := r.Snapshot().Sub(before)
	if d.Counters["c_total"] != 7 {
		t.Errorf("counter delta = %d, want 7", d.Counters["c_total"])
	}
	if d.Counters["late_total"] != 2 {
		t.Errorf("late counter delta = %d, want 2 (absent in before)", d.Counters["late_total"])
	}
	if d.Gauges["g"] != 9 {
		t.Errorf("gauge in delta = %d, want the current value 9", d.Gauges["g"])
	}
	hs := d.Histograms["h_seconds"]
	if hs.Count != 2 || hs.Counts[0] != 1 || hs.Counts[1] != 1 {
		t.Errorf("histogram delta = %+v, want one sample per bucket", hs)
	}
	if hs.Sum != 5.5 {
		t.Errorf("histogram delta sum = %g, want 5.5", hs.Sum)
	}
}

// WriteJSONLSince must honor the cursor: a fresh tracer returns the tail
// after any since, an overflowing ring drops the oldest lines, and a
// cursor at or past the head returns nothing.
func TestWriteJSONLSince(t *testing.T) {
	tr := NewTracer(nil, 4)
	for i := 0; i < 6; i++ { // seqs 1..6; ring keeps 3..6
		tr.Emit(Event{Type: "e", N: i, Round: -1})
	}
	dump := func(since int64) []string {
		var b bytes.Buffer
		last, err := tr.WriteJSONLSince(&b, since)
		if err != nil {
			t.Fatal(err)
		}
		// The returned cursor is the newest seq written, or since itself
		// when the tail is empty.
		if b.Len() > 0 {
			if last != 6 {
				t.Errorf("since %d: cursor = %d, want 6", since, last)
			}
		} else if last != since {
			t.Errorf("since %d: empty-tail cursor = %d, want %d", since, last, since)
		}
		s := strings.TrimSpace(b.String())
		if s == "" {
			return nil
		}
		return strings.Split(s, "\n")
	}
	if got := dump(0); len(got) != 4 {
		t.Errorf("since 0: %d lines, want the full ring of 4", len(got))
	}
	if got := dump(4); len(got) != 2 {
		t.Errorf("since 4: %d lines, want 2 (seqs 5,6)", len(got))
	}
	// A cursor older than the ring returns everything retained.
	if got := dump(1); len(got) != 4 {
		t.Errorf("since 1 (evicted): %d lines, want 4", len(got))
	}
	if got := dump(6); got != nil {
		t.Errorf("since head: %v, want nothing", got)
	}
	if got := dump(99); got != nil {
		t.Errorf("since past head: %v, want nothing", got)
	}
}

// Ring overwrites must tick the eviction count and, once instrumented, the
// cst_obs_trace_dropped_total counter — including evictions that happened
// before Instrument was called.
func TestTracerEvictionCounter(t *testing.T) {
	tr := NewTracer(nil, 2)
	tr.Emit(Event{Type: "a", Round: -1})
	tr.Emit(Event{Type: "b", Round: -1})
	if tr.Evicted() != 0 {
		t.Fatalf("evicted = %d before overflow", tr.Evicted())
	}
	tr.Emit(Event{Type: "c", Round: -1}) // overwrites "a"
	if tr.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", tr.Evicted())
	}

	r := New()
	tr.Instrument(r)
	if got := r.Snapshot().Counters["cst_obs_trace_dropped_total"]; got != 1 {
		t.Fatalf("counter = %d after Instrument, want the pre-existing eviction", got)
	}
	tr.Emit(Event{Type: "d", Round: -1})
	tr.Emit(Event{Type: "e", Round: -1})
	if got := r.Snapshot().Counters["cst_obs_trace_dropped_total"]; got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if tr.Evicted() != 3 {
		t.Fatalf("evicted = %d, want 3", tr.Evicted())
	}
}

// The sink must see every event, in order, with sequence numbers assigned,
// and detach cleanly.
func TestTracerSink(t *testing.T) {
	tr := NewTracer(nil, 8)
	var seen []Event
	tr.SetSink(func(e Event) { seen = append(seen, e) })
	tr.Emit(Event{Type: "a", Round: -1})
	tr.Emit(Event{Type: "b", Round: -1})
	tr.SetSink(nil)
	tr.Emit(Event{Type: "c", Round: -1})
	if len(seen) != 2 {
		t.Fatalf("sink saw %d events, want 2", len(seen))
	}
	if seen[0].Type != "a" || seen[0].Seq != 1 || seen[1].Seq != 2 {
		t.Fatalf("sink events = %+v", seen)
	}
	if seen[0].TS == 0 {
		t.Error("sink event missing timestamp")
	}
	// Nil tracer: SetSink and Emit both no-op.
	var nilTr *Tracer
	nilTr.SetSink(func(Event) { t.Error("sink on nil tracer fired") })
	nilTr.Emit(Event{Type: "x"})
}

// Streaming is true exactly while a sink or a writer consumes events, and
// it may be read while another goroutine swaps the sink (run with -race).
func TestTracerStreaming(t *testing.T) {
	var nilTr *Tracer
	if nilTr.Streaming() || NewTracer(nil, 8).Streaming() {
		t.Fatal("nil or ring-only tracer reports streaming")
	}
	if !NewTracer(&strings.Builder{}, 8).Streaming() {
		t.Fatal("tracer with a writer reports no streaming")
	}
	tr := NewTracer(nil, 8)
	tr.SetSink(func(Event) {})
	if !tr.Streaming() {
		t.Fatal("tracer with a sink reports no streaming")
	}
	tr.SetSink(nil)
	if tr.Streaming() {
		t.Fatal("detached sink still reports streaming")
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			tr.SetSink(func(Event) {})
			tr.SetSink(nil)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			_ = tr.Streaming()
		}
	}()
	wg.Wait()
	if tr.Streaming() {
		t.Fatal("sink detached last, tracer still reports streaming")
	}
}

// The /trace endpoint must speak NDJSON, honor ?since=, reject garbage
// cursors, and advertise the head sequence for incremental polling.
func TestTraceSinceEndpoint(t *testing.T) {
	r := New()
	tr := NewTracer(nil, 16)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Type: "e", N: i, Round: -1})
	}
	h := Handler(r, tr)

	req := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	rec := req("/trace?since=3")
	if rec.Code != 200 {
		t.Fatalf("/trace?since=3 = %d", rec.Code)
	}
	if got := len(strings.Split(strings.TrimSpace(rec.Body.String()), "\n")); got != 2 {
		t.Errorf("since=3 returned %d lines, want 2", got)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if seq := rec.Header().Get("X-Trace-Last-Seq"); seq != "5" {
		t.Errorf("X-Trace-Last-Seq = %q, want 5", seq)
	}

	rec = req("/trace?since=5")
	if rec.Code != 200 || strings.TrimSpace(rec.Body.String()) != "" {
		t.Errorf("since=head = %d %q, want 200 with empty body", rec.Code, rec.Body.String())
	}
	for _, bad := range []string{"/trace?since=x", "/trace?since=-1", "/trace?since=1.5"} {
		if rec := req(bad); rec.Code != 400 {
			t.Errorf("%s = %d, want 400", bad, rec.Code)
		}
	}
}
