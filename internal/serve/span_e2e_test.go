package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cst/internal/obs"
	"cst/internal/wire"
)

// flightByRoot indexes a flight snapshot's pinned traces by root span name.
func flightByRoot(snap obs.FlightSnapshot) map[string]obs.FlightTrace {
	m := make(map[string]obs.FlightTrace)
	for _, ft := range snap.Slowest {
		m[ft.Root] = ft
	}
	return m
}

// getFlight reads the flight recorder the way an operator does: GET
// /trace/flight on the served mux, decoded into its snapshot type.
func getFlight(t *testing.T, baseURL string) obs.FlightSnapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/trace/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace/flight = %d", resp.StatusCode)
	}
	var snap obs.FlightSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /trace/flight: %v", err)
	}
	return snap
}

// spanNames collects the set of span names inside one pinned trace.
func spanNames(ft obs.FlightTrace) map[string]bool {
	m := make(map[string]bool, len(ft.Spans))
	for _, sp := range ft.Spans {
		m[sp.Name] = true
	}
	return m
}

// TestSpanTreeEndToEnd drives one request of each shape over each protocol
// with sampling at 1.0 and asserts every one lands in the flight recorder
// as a single connected span tree: a transport root, the engine spans
// beneath it, and zero orphans. It reads the recorder through GET
// /trace/flight, so the endpoint's JSON is checked along with the trees.
// Run with -race this doubles as the concurrency check on the span path
// (reader goroutine opens the root, the writer goroutine closes it, the
// shard worker emits the engine spans).
func TestSpanTreeEndToEnd(t *testing.T) {
	tr := obs.NewTracer(nil, 4096)
	tr.SetSampleRate(1)
	fr := obs.NewFlightRecorder(16)
	tr.SetFlight(fr)
	reg := obs.New()
	pl := NewPlanner(PlannerConfig{Registry: reg, Tracer: tr})
	// EngineMetrics threads the tracer into the shard engines; without it
	// the tree still connects but stops at serve.dispatch (no online.batch
	// or padr.run engine spans).
	addr, p, _, teardown := startWire(t,
		Config{PEs: 16, Shards: 2, Registry: reg, Tracer: tr, EngineMetrics: true},
		WireConfig{Planner: pl, Registry: reg, Tracer: tr})
	srv := httptest.NewServer(Handler(p, pl, reg, tr))
	defer srv.Close()

	// HTTP pair request carrying an upstream context: the response must
	// stay on the caller's trace, not mint a fresh one.
	const upstream = "00000000000000ab-00000000000000cd-01"
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/schedule",
		strings.NewReader(`{"src":0,"dst":7}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, upstream)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var pairRes Result
	if err := json.NewDecoder(resp.Body).Decode(&pairRes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /schedule = %d", resp.StatusCode)
	}
	if pairRes.TraceID != "00000000000000ab" {
		t.Errorf("pair trace_id = %q, want the upstream trace 00000000000000ab", pairRes.TraceID)
	}
	if h := resp.Header.Get(obs.TraceHeader); !strings.HasPrefix(h, "00000000000000ab-") {
		t.Errorf("response %s = %q, want upstream trace", obs.TraceHeader, h)
	}

	// HTTP set request (no upstream context: the server roots the trace).
	resp, err = http.Post(srv.URL+"/schedule-set", "application/json",
		strings.NewReader(`{"n":16,"comms":[{"src":0,"dst":8},{"src":12,"dst":4},{"src":2,"dst":9}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var setRes SetResult
	if err := json.NewDecoder(resp.Body).Decode(&setRes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /schedule-set = %d", resp.StatusCode)
	}
	if setRes.TraceID == "" {
		t.Error("set result carries no trace_id at sampling 1.0")
	}

	// Wire protocol: one pair and one set on a single connection.
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&wire.Request{ID: 1, Src: 2, Dst: 9}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var wresp wire.Response
	if err := c.Recv(&wresp); err != nil {
		t.Fatal(err)
	}
	if wresp.Status != http.StatusOK {
		t.Fatalf("wire pair response = %+v", wresp)
	}
	if wresp.Trace == 0 {
		t.Error("wire pair response carries no trace id at sampling 1.0")
	}
	if err := c.SendSet(&wire.SetRequest{ID: 2, N: 16, Pairs: [][2]int{{0, 8}, {12, 4}, {2, 9}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var wset wire.SetResponse
	if err := c.RecvSet(&wset); err != nil {
		t.Fatal(err)
	}
	if wset.Status != http.StatusOK {
		t.Fatalf("wire set response = %+v", wset)
	}
	if wset.Trace == 0 {
		t.Error("wire set response carries no trace id at sampling 1.0")
	}

	// Root spans close just after the response is written, so the client
	// can observe the answer before the tree finalizes: poll.
	var snap obs.FlightSnapshot
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap = getFlight(t, srv.URL)
		if snap.Finished >= 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	teardown()

	snap = getFlight(t, srv.URL)
	if snap.Finished != 4 {
		t.Fatalf("finished traces = %d, want 4 (one per request)", snap.Finished)
	}
	if snap.OrphanSpans != 0 {
		t.Errorf("orphan spans = %d, want 0 (broken parent propagation)", snap.OrphanSpans)
	}
	if snap.OpenTraces != 0 || snap.AbandonedTraces != 0 {
		t.Errorf("open=%d abandoned=%d traces after drain, want 0/0",
			snap.OpenTraces, snap.AbandonedTraces)
	}

	// Every request was pinned (k=16 >> 4); check each tree's shape.
	byRoot := flightByRoot(snap)
	want := map[string][]string{
		"http.schedule": {"serve.queue", "serve.dispatch", "online.batch", "padr.run", "response.write"},
		"http.plan":     {"serve.plan", "hybrid.decompose", "hybrid.peel", "hybrid.replay", "response.write"},
		"wire.schedule": {"serve.queue", "serve.dispatch", "online.batch", "padr.run", "response.write"},
		"wire.plan":     {"serve.plan", "hybrid.decompose", "hybrid.peel", "hybrid.replay", "response.write"},
	}
	for root, children := range want {
		ft, ok := byRoot[root]
		if !ok {
			t.Errorf("no pinned trace rooted at %q", root)
			continue
		}
		if ft.Orphans != 0 {
			t.Errorf("%s: %d orphan spans in tree %s", root, ft.Orphans, ft.Trace)
		}
		names := spanNames(ft)
		for _, child := range children {
			if !names[child] {
				t.Errorf("%s (trace %s): missing %q span; got %v", root, ft.Trace, child, keys(names))
			}
		}
	}
	if ft, ok := byRoot["http.schedule"]; ok && ft.Trace != "00000000000000ab" {
		t.Errorf("http.schedule pinned under trace %s, want the propagated upstream id", ft.Trace)
	}
	if ft, ok := byRoot["wire.schedule"]; ok && ft.Trace != obs.TraceID(wresp.Trace).String() {
		t.Errorf("wire.schedule pinned under trace %s, response said %s",
			ft.Trace, obs.TraceID(wresp.Trace).String())
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
