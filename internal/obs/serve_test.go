package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	r := New()
	r.Counter("cst_demo_rounds_total", "demo").Add(3)
	tr := NewTracer(nil, 16)
	tr.Emit(Event{Type: "round.start", Engine: "demo", Round: 0})
	tr.Emit(Event{Type: "round.done", Engine: "demo", Round: 0, N: 2})
	h := Handler(r, tr)

	code, body := get(t, h, "/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body = get(t, h, "/metrics")
	if code != 200 || !strings.Contains(body, "cst_demo_rounds_total 3") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	code, body = get(t, h, "/trace")
	if code != 200 {
		t.Fatalf("/trace = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("/trace has %d lines, want 2:\n%s", len(lines), body)
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("bad JSONL line %q: %v", lines[1], err)
	}
	if e.Type != "round.done" || e.N != 2 || e.Seq != 2 {
		t.Fatalf("decoded event %+v", e)
	}
	code, body = get(t, h, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	code, _ = get(t, h, "/debug/pprof/cmdline")
	if code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestHandlerNilBackends(t *testing.T) {
	h := Handler(nil, nil)
	if code, _ := get(t, h, "/metrics"); code != 200 {
		t.Fatalf("/metrics on nil registry = %d", code)
	}
	if code, _ := get(t, h, "/trace"); code != 200 {
		t.Fatalf("/trace on nil tracer = %d", code)
	}
	// No flight recorder attached, on a nil tracer or a live one: 404.
	if code, _ := get(t, h, "/trace/flight"); code != 404 {
		t.Fatalf("/trace/flight on nil tracer = %d, want 404", code)
	}
	if code, _ := get(t, Handler(nil, NewTracer(nil, 16)), "/trace/flight"); code != 404 {
		t.Fatalf("/trace/flight with no recorder = %d, want 404", code)
	}
}

func TestServe(t *testing.T) {
	r := New()
	r.Counter("cst_demo_live_total", "demo").Inc()
	srv, err := Serve("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("cst_demo_live_total 1")) {
		t.Fatalf("live /metrics missing series:\n%s", body)
	}
}

// TestTraceCursorNoDuplicatesUnderEmit pins the /trace?since= resume
// contract while events are being emitted concurrently: every poll resumes
// from the X-Trace-Last-Seq cursor of the previous one, and no event may be
// delivered twice. Computing the cursor from Events() before capturing the
// ring (the pre-fix code) hands out a cursor that trails events already in
// the body, which this test detects as duplicate seqs across polls. Several
// pollers run at once: ring captures hold the tracer lock long enough that
// a poller blocks between its two lock acquisitions, so emitters interleave
// into the (pre-fix) header/body window even on a single-CPU runner.
func TestTraceCursorNoDuplicatesUnderEmit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	tr := NewTracer(nil, 1<<16)
	h := Handler(nil, tr)

	var emitters sync.WaitGroup
	for g := 0; g < 2; g++ {
		emitters.Add(1)
		go func() {
			defer emitters.Done()
			for i := 0; i < 20000; i++ {
				tr.Emit(Event{Type: "e", Engine: "demo", Round: -1})
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}

	var pollers sync.WaitGroup
	for g := 0; g < 3; g++ {
		pollers.Add(1)
		go func(id int) {
			defer pollers.Done()
			seen := make(map[int64]bool)
			var since int64
			for poll := 0; poll < 200; poll++ {
				req := httptest.NewRequest("GET", "/trace?since="+strconv.FormatInt(since, 10), nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Errorf("poller %d: /trace = %d", id, rec.Code)
					return
				}
				cursor, err := strconv.ParseInt(rec.Header().Get("X-Trace-Last-Seq"), 10, 64)
				if err != nil {
					t.Errorf("poller %d: bad X-Trace-Last-Seq %q", id, rec.Header().Get("X-Trace-Last-Seq"))
					return
				}
				body := strings.TrimSpace(rec.Body.String())
				var lastInBody int64
				if body != "" {
					for _, line := range strings.Split(body, "\n") {
						var e Event
						if err := json.Unmarshal([]byte(line), &e); err != nil {
							t.Errorf("poller %d: bad line %q: %v", id, line, err)
							return
						}
						if seen[e.Seq] {
							t.Errorf("poller %d poll %d: seq %d delivered twice across ?since= resume (cursor race)", id, poll, e.Seq)
							return
						}
						seen[e.Seq] = true
						lastInBody = e.Seq
					}
					if cursor != lastInBody {
						t.Errorf("poller %d poll %d: X-Trace-Last-Seq = %d but body ends at seq %d", id, poll, cursor, lastInBody)
						return
					}
				}
				since = cursor
			}
		}(g)
	}
	emitters.Wait()
	pollers.Wait()
}

// TestServerCloseGraceful pins the shutdown contract: a /trace download in
// flight when Close is called runs to completion instead of being aborted
// mid-body (the pre-fix http.Server.Close behaviour).
func TestServerCloseGraceful(t *testing.T) {
	tr := NewTracer(nil, 1<<16)
	// Enough events that the response body far exceeds the socket buffers,
	// so the server write genuinely blocks on the reading client below.
	const events = 40000
	for i := 0; i < events; i++ {
		tr.Emit(Event{Type: "round.start", Engine: "demo", Round: i, N: i})
	}
	srv, err := Serve("127.0.0.1:0", nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read a first chunk to make sure the response is underway, then shut
	// the server down while the rest of the body is still in flight.
	chunk := make([]byte, 4096)
	if _, err := io.ReadFull(resp.Body, chunk); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("in-flight /trace aborted by Close: %v", err)
	}
	body := string(chunk) + string(rest)
	if got := strings.Count(body, "\n"); got != events {
		t.Fatalf("in-flight /trace truncated: %d lines, want %d", got, events)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v", err)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(nil, 4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Type: "e", N: i, Round: -1})
	}
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(lines))
	}
	var first Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.N != 6 {
		t.Fatalf("oldest retained event N = %d, want 6", first.N)
	}
	if tr.Events() != 10 {
		t.Fatalf("Events() = %d, want 10", tr.Events())
	}
}

func TestTracerStreams(t *testing.T) {
	var out bytes.Buffer
	tr := NewTracer(&out, 8)
	tr.Emit(Event{Type: "a", Round: -1})
	tr.Emit(Event{Type: "b", Round: -1})
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("streamed %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"type":"a"`) {
		t.Fatalf("first streamed line %q", lines[0])
	}
}
