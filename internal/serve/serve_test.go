package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cst/internal/fault"
	"cst/internal/obs"
	"cst/internal/online"
)

func drainOK(t *testing.T, p *Pool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// scrape reads one series' value off reg the way a metrics scraper does:
// GET /metrics on the served mux, then the line that names the series.
func scrape(t *testing.T, reg *obs.Registry, series string) string {
	t.Helper()
	srv := httptest.NewServer(obs.Handler(reg, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no %s series", series)
	return ""
}

func TestScheduleBasic(t *testing.T) {
	p, err := New(Config{PEs: 16, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	var wg sync.WaitGroup
	results := make([]Result, 4)
	pairs := [][2]int{{0, 7}, {1, 6}, {8, 11}, {15, 12}}
	for i, pr := range pairs {
		wg.Add(1)
		go func(i int, src, dst int) {
			defer wg.Done()
			results[i] = p.Schedule(src, dst, 0)
		}(i, pr[0], pr[1])
	}
	wg.Wait()
	for i, res := range results {
		if res.Status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, res.Status, res.Err)
		}
		if res.Finished < res.Arrival || res.LatencyRounds != res.Finished-res.Arrival {
			t.Fatalf("request %d: inconsistent rounds %+v", i, res)
		}
		if res.Src != pairs[i][0] || res.Dst != pairs[i][1] {
			t.Fatalf("request %d: echoed endpoints %d->%d, want %d->%d",
				i, res.Src, res.Dst, pairs[i][0], pairs[i][1])
		}
	}
	drainOK(t, p)
	if res := p.Schedule(0, 1, 0); res.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain Schedule: status %d, want 503", res.Status)
	}
}

func TestBadEndpoints(t *testing.T) {
	p, err := New(Config{PEs: 8, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range [][2]int{{-1, 3}, {0, 8}, {5, 5}} {
		if res := p.Schedule(pr[0], pr[1], 0); res.Status != http.StatusBadRequest {
			t.Errorf("%d->%d: status %d, want 400", pr[0], pr[1], res.Status)
		}
	}
	if st := p.Snapshot(); st.Admitted != 0 {
		t.Errorf("bad requests were admitted: %+v", st)
	}
	drainOK(t, p)
}

// TestBackpressure pins the 429 contract deterministically: with one shard,
// queue depth one and the workers not yet started, the second admission
// must be refused, and the queued request must still complete once the
// workers come up (Drain starts them).
func TestBackpressure(t *testing.T) {
	p, err := New(Config{PEs: 16, Shards: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan Result, 1)
	go func() { first <- p.Schedule(0, 3, 0) }()
	for p.Snapshot().Admitted == 0 {
		time.Sleep(time.Millisecond)
	}
	if res := p.Schedule(4, 7, 0); res.Status != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d (%s), want 429", res.Status, res.Err)
	}
	drainOK(t, p) // starts the worker, flushes the queued request
	if res := <-first; res.Status != http.StatusOK {
		t.Fatalf("queued request after drain: status %d (%s)", res.Status, res.Err)
	}
}

// TestDeadline pins the 504 path: a request whose deadline passes while it
// sits in the admission queue is answered with the fault package's
// deadline taxonomy instead of being scheduled. The request is queued
// before the worker starts, so it is already expired when its flush runs.
func TestDeadline(t *testing.T) {
	reg := obs.New()
	p, err := New(Config{PEs: 16, Shards: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Result, 1)
	go func() { done <- p.Schedule(0, 3, time.Millisecond) }()
	for p.Snapshot().Admitted == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	p.Start()
	res := <-done
	if res.Status != http.StatusGatewayTimeout {
		t.Fatalf("expired request: status %d (%s), want 504", res.Status, res.Err)
	}
	if !strings.Contains(res.Err, fault.ErrDeadline.Error()) {
		t.Fatalf("deadline error %q does not carry the fault taxonomy %q", res.Err, fault.ErrDeadline)
	}
	if n := reg.Snapshot().Counters["cst_serve_deadline_total"]; n != 1 {
		t.Fatalf("cst_serve_deadline_total = %d, want 1", n)
	}
	drainOK(t, p)
}

// TestWorkConservingFlush pins the batch policy: a free worker flushes
// whatever is queued at once, up to BatchMax, and never waits for more —
// whatever BatchWait says.
func TestWorkConservingFlush(t *testing.T) {
	t.Run("lone request", func(t *testing.T) {
		reg := obs.New()
		p, err := New(Config{PEs: 16, Shards: 1, BatchWait: 5 * time.Second, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		start := time.Now()
		res := p.Schedule(0, 3, 0)
		if elapsed := time.Since(start); elapsed >= time.Second {
			t.Fatalf("lone request took %v: it waited for a batch to fill", elapsed)
		}
		if res.Status != http.StatusOK {
			t.Fatalf("status %d (%s), want 200", res.Status, res.Err)
		}
		if n := reg.Snapshot().Counters["cst_serve_flushes_total"]; n != 1 {
			t.Fatalf("cst_serve_flushes_total = %d, want 1", n)
		}
		drainOK(t, p)
	})
	t.Run("queued backlog", func(t *testing.T) {
		const queued = 40
		reg := obs.New()
		p, err := New(Config{PEs: 128, Shards: 1, QueueDepth: queued, BatchMax: 32,
			BatchWait: 5 * time.Second, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		results := make(chan Result, queued)
		for i := 0; i < queued; i++ {
			go func(i int) { results <- p.Schedule(2*i, 2*i+1, 0) }(i)
		}
		for p.Snapshot().Admitted < queued {
			time.Sleep(time.Millisecond)
		}
		p.Start()
		for i := 0; i < queued; i++ {
			if res := <-results; res.Status != http.StatusOK {
				t.Fatalf("backlog request: status %d (%s)", res.Status, res.Err)
			}
		}
		snap := reg.Snapshot()
		if n := snap.Counters["cst_serve_flushes_total"]; n != 2 {
			t.Fatalf("cst_serve_flushes_total = %d, want 2", n)
		}
		// Two batches summing to 40, one in the (4, 8] bucket and one in
		// (16, 32]: only 8 and 32 fit.
		h := snap.Histograms["cst_serve_batch_size"]
		perBucket := map[float64]int64{}
		for i, bound := range h.Bounds {
			perBucket[bound] = h.Counts[i]
		}
		if h.Count != 2 || h.Sum != queued || perBucket[8] != 1 || perBucket[32] != 1 {
			t.Fatalf("batch sizes: count %d, sum %g, buckets %v; want one batch of 32 and one of 8",
				h.Count, h.Sum, perBucket)
		}
		drainOK(t, p)
	})
}

// TestQuarantine pins the 500 path: a fault plan that defeats every
// dispatch attempt quarantines the batch, the waiter gets an error answer,
// and the shard keeps serving afterwards.
func TestQuarantine(t *testing.T) {
	var plan []fault.Fault
	for run := 0; run < online.MaxDispatchAttempts; run++ {
		plan = append(plan, fault.Fault{Kind: fault.FreezeSwitch, Node: 1, Run: run, Round: 0, Duration: 64})
	}
	reg := obs.New()
	p, err := New(Config{PEs: 16, Shards: 1, Faults: plan, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if res := p.Schedule(0, 7, 0); res.Status != http.StatusInternalServerError {
		t.Fatalf("poisoned batch: status %d (%s), want 500", res.Status, res.Err)
	}
	if res := p.Schedule(1, 6, 0); res.Status != http.StatusOK {
		t.Fatalf("request after quarantine: status %d (%s), want 200", res.Status, res.Err)
	}
	drainOK(t, p)
	if got := scrape(t, reg, "cst_serve_quarantined_total"); got != "1" {
		t.Errorf("cst_serve_quarantined_total = %s, want 1", got)
	}
}

// TestDrainZeroLoss is the headline drain property: under concurrent load,
// every admitted request receives exactly one terminal answer and the
// admitted/responded ledger balances — Drain fails otherwise.
func TestDrainZeroLoss(t *testing.T) {
	reg := obs.New()
	p, err := New(Config{PEs: 32, Shards: 2, QueueDepth: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	const clients, perClient = 8, 25
	counts := make([]map[int]int, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			counts[g] = make(map[int]int)
			for i := 0; i < perClient; i++ {
				src := (g*4 + i) % 32
				dst := (src + 1 + g%3) % 32
				if src == dst {
					dst = (dst + 1) % 32
				}
				res := p.Schedule(src, dst, 0)
				counts[g][res.Status]++
			}
		}(g)
	}
	wg.Wait()
	drainOK(t, p)
	total := 0
	for g, m := range counts {
		for status, n := range m {
			total += n
			switch status {
			case http.StatusOK, http.StatusTooManyRequests:
			default:
				t.Errorf("client %d: %d requests ended with unexpected status %d", g, n, status)
			}
		}
	}
	if total != clients*perClient {
		t.Fatalf("answered %d requests, want %d", total, clients*perClient)
	}
	st := p.Snapshot()
	if st.Admitted != st.Responded {
		t.Fatalf("ledger imbalance after drain: %+v", st)
	}
	for shard, depth := range st.QueueDepth {
		if depth != 0 {
			t.Fatalf("shard %d queue not drained: depth %d", shard, depth)
		}
	}
}

// TestDrainFlushesQueuedBacklog drains a pool whose workers never ran: the
// backlog sitting in the admission queues must still be answered.
func TestDrainFlushesQueuedBacklog(t *testing.T) {
	p, err := New(Config{PEs: 16, Shards: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan Result, 4)
	for i := 0; i < 4; i++ {
		go func(i int) { results <- p.Schedule(i*2, i*2+1, 0) }(i)
	}
	for p.Snapshot().Admitted < 4 {
		time.Sleep(time.Millisecond)
	}
	drainOK(t, p)
	for i := 0; i < 4; i++ {
		if res := <-results; res.Status != http.StatusOK {
			t.Fatalf("backlog request: status %d (%s)", res.Status, res.Err)
		}
	}
}

func TestMetricsExposed(t *testing.T) {
	reg := obs.New()
	p, err := New(Config{PEs: 16, Shards: 1, Registry: reg, EngineMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if res := p.Schedule(0, 7, 0); res.Status != http.StatusOK {
		t.Fatalf("schedule: %+v", res)
	}
	p.Schedule(5, 5, 0) // 400, feeds the bad-request counter
	drainOK(t, p)
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, series := range []string{
		"cst_serve_requests_total 2",
		"cst_serve_scheduled_total 1",
		"cst_serve_bad_requests_total 1",
		"cst_serve_rejected_total 0",
		"cst_serve_queue_depth 0",
		"cst_serve_inflight 0",
		"cst_serve_batch_size_count 1",
		"cst_serve_latency_count 1",
		"cst_online_completed_total 1", // EngineMetrics threads through
	} {
		if !strings.Contains(out, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	if strings.Contains(out, "cst_serve_request_seconds") {
		t.Error("/metrics still exposes the deleted cst_serve_request_seconds histograms")
	}
}

// TestHTTPHandler checks the three POST endpoints alike — method, decode
// and size errors, the retroactive error root at sampling 0 and an
// upstream trace continued on a 200 — then the set answer's shape and the
// introspection endpoints.
func TestHTTPHandler(t *testing.T) {
	reg := obs.New()
	tr := obs.NewTracer(nil, 1024)
	tr.SetSampleRate(0)
	p, err := New(Config{PEs: 16, Shards: 1, Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	pl := NewPlanner(PlannerConfig{Registry: reg, Tracer: tr})
	srv := httptest.NewServer(Handler(p, pl, reg, tr))
	defer srv.Close()

	send := func(method, path, body, traceHeader string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if traceHeader != "" {
			req.Header.Set(obs.TraceHeader, traceHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	const upstream = "00000000000000ab-00000000000000cd-01"
	oversized := `{"src":0` + strings.Repeat(" ", maxBodyBytes+1-len(`{"src":0}`)) + `}`
	for _, ep := range []struct{ path, ok string }{
		{"/schedule", `{"src":0,"dst":7}`},
		{"/schedule-set", `{"n":16,"comms":[{"src":0,"dst":8},{"src":12,"dst":4},{"src":2,"dst":9}]}`},
		{"/schedule-delta", `{"session":1,"add":[{"src":0,"dst":7}]}`},
	} {
		resp := send(http.MethodGet, ep.path, "", "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", ep.path, resp.StatusCode)
		}
		for _, bad := range []struct {
			body   string
			status int
		}{{`{`, http.StatusBadRequest}, {oversized, http.StatusRequestEntityTooLarge}} {
			resp := send(http.MethodPost, ep.path, bad.body, "")
			resp.Body.Close()
			if resp.StatusCode != bad.status {
				t.Errorf("POST %s with a %d-byte body = %d, want %d", ep.path, len(bad.body), resp.StatusCode, bad.status)
			}
			// Nothing is head-sampled at rate 0: only the retroactive
			// error root can have traced this answer.
			if sctx, ok := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader)); !ok || !sctx.Valid() {
				t.Errorf("POST %s answered %d without an error-root %s header", ep.path, resp.StatusCode, obs.TraceHeader)
			}
		}
		resp = send(http.MethodPost, ep.path, ep.ok, upstream)
		var body struct {
			Status  int    `json:"status"`
			TraceID string `json:"trace_id"`
		}
		err := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || body.Status != http.StatusOK {
			t.Fatalf("POST %s = %d, body %+v (%v), want 200", ep.path, resp.StatusCode, body, err)
		}
		if h := resp.Header.Get(obs.TraceHeader); body.TraceID != "00000000000000ab" || !strings.HasPrefix(h, "00000000000000ab-") {
			t.Errorf("POST %s continued trace %q (header %q), want the upstream trace 00000000000000ab", ep.path, body.TraceID, h)
		}
	}

	// A non-well-nested set (crossing pair plus a left-oriented comm)
	// plans end to end through the hybrid pipeline.
	resp, err := http.Post(srv.URL+"/schedule-set", "application/json",
		strings.NewReader(`{"n":16,"comms":[{"src":0,"dst":8},{"src":12,"dst":4},{"src":2,"dst":9}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var setRes SetResult
	if err := json.NewDecoder(resp.Body).Decode(&setRes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || setRes.Status != http.StatusOK {
		t.Fatalf("POST /schedule-set = %d/%d: %s", resp.StatusCode, setRes.Status, setRes.Err)
	}
	scheduled := 0
	for _, round := range setRes.Schedule {
		scheduled += len(round)
	}
	if setRes.Rounds < 1 || len(setRes.Schedule) != setRes.Rounds || scheduled != 3 {
		t.Fatalf("set plan shape: %+v", setRes)
	}
	if setRes.Units <= 0 {
		t.Fatalf("set plan billed %d units", setRes.Units)
	}

	resp, err = http.Post(srv.URL+"/schedule-set", "application/json",
		strings.NewReader(`{"n":16,"comms":[{"src":3,"dst":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid set = %d, want 400", resp.StatusCode)
	}

	for _, path := range []string{"/statusz", "/metrics", "/healthz", "/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}

	// /statusz after the traffic: the pool's size, and an admission
	// ledger that balances (set requests never enter it).
	resp, err = http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding /statusz: %v", err)
	}
	if st.PEs != 16 || st.Shards != 1 {
		t.Errorf("/statusz pes=%d shards=%d, want 16 and 1", st.PEs, st.Shards)
	}
	if st.Admitted < 1 || st.Admitted != st.Responded {
		t.Errorf("/statusz admitted=%d responded=%d, want equal and >= 1", st.Admitted, st.Responded)
	}
	drainOK(t, p)
}
