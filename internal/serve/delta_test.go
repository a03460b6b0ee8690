package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cst/internal/comm"
	"cst/internal/fault"
	"cst/internal/obs"
	"cst/internal/topology"
	"cst/internal/wire"
)

// TestScheduleDeltaLifecycle drives a session through the pool API: the
// opening delta runs from scratch, later deltas ride the warm engine, an
// invalid delta maps to 400 with the session untouched, and the admission
// ledger stays balanced.
func TestScheduleDeltaLifecycle(t *testing.T) {
	reg := obs.New()
	p, err := New(Config{PEs: 16, Shards: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = p.Drain(ctx)
	}()

	res := p.ScheduleDelta(5, nil, []comm.Comm{{Src: 0, Dst: 7}, {Src: 1, Dst: 2}}, 0)
	if res.Status != http.StatusOK || !res.Fallback || res.Size != 2 {
		t.Fatalf("opening delta = %+v, want 200 fallback size 2", res)
	}
	res = p.ScheduleDelta(5, []comm.Comm{{Src: 1, Dst: 2}}, []comm.Comm{{Src: 3, Dst: 6}}, 0)
	if res.Status != http.StatusOK || res.Fallback || res.Size != 2 {
		t.Fatalf("warm delta = %+v, want 200 incremental size 2", res)
	}
	if res.Rounds <= 0 || res.Width != res.Rounds {
		t.Fatalf("warm delta schedule shape = %+v", res)
	}

	// Invalid against the session: 400, set untouched.
	res = p.ScheduleDelta(5, []comm.Comm{{Src: 9, Dst: 10}}, nil, 0)
	if res.Status != http.StatusBadRequest || res.Err == "" || res.Size != 2 {
		t.Fatalf("invalid delta = %+v, want 400 with error, size 2", res)
	}
	// And the session survived it warm.
	res = p.ScheduleDelta(5, nil, []comm.Comm{{Src: 4, Dst: 5}}, 0)
	if res.Status != http.StatusOK || res.Fallback {
		t.Fatalf("delta after rejection = %+v, want warm 200", res)
	}

	if st := p.Snapshot(); st.Admitted != st.Responded {
		t.Fatalf("ledger: admitted %d responded %d", st.Admitted, st.Responded)
	}
}

// TestDeltaSessionPinning pins the shard-affinity invariant: session id
// modulo the shard count picks the worker, so every delta of a session
// lands on the simulator holding its warm engine. Each shard's open
// sessions also read through /metrics, each gauge counting only its own.
func TestDeltaSessionPinning(t *testing.T) {
	reg := obs.New()
	p, err := New(Config{PEs: 16, Shards: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = p.Drain(ctx)
	}()

	for id := uint64(0); id < 5; id++ {
		if res := p.ScheduleDelta(id, nil, []comm.Comm{{Src: 0, Dst: 3}}, 0); res.Status != http.StatusOK {
			t.Fatalf("session %d: %+v", id, res)
		}
	}
	// Sessions 0,2,4 pin to shard 0; 1,3 to shard 1.
	for i, w := range p.workers {
		want := 3 - i
		if got := w.sim.DeltaSessions(); got != want {
			t.Fatalf("shard %d holds %d sessions, want %d", i, got, want)
		}
		if got := scrape(t, reg, fmt.Sprintf(`cst_serve_delta_sessions{shard="%d"}`, i)); got != fmt.Sprint(want) {
			t.Errorf("shard %d: /metrics reads %s open sessions, want %d", i, got, want)
		}
	}
}

// TestDeltaDeadlineAndDrain pins the 504 and 503 taxonomy for deltas: an
// already-expired deadline settles before touching the simulator, and a
// draining pool refuses new deltas inline — and pairs alike, through the
// same admission, each refusal counted once in /metrics.
func TestDeltaDeadlineAndDrain(t *testing.T) {
	reg := obs.New()
	p, err := New(Config{PEs: 16, Shards: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()

	res := p.ScheduleDelta(1, nil, []comm.Comm{{Src: 0, Dst: 7}}, time.Nanosecond)
	if res.Status != http.StatusGatewayTimeout || res.Err == "" {
		t.Fatalf("expired delta = %+v, want 504", res)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res = p.ScheduleDelta(2, nil, nil, 0)
	if res.Status != http.StatusServiceUnavailable || !strings.Contains(res.Err, ErrDraining.Error()) {
		t.Fatalf("delta while draining = %+v, want 503", res)
	}
	if res := p.Schedule(0, 7, 0); res.Status != http.StatusServiceUnavailable || res.Shard != -1 {
		t.Fatalf("pair while draining = %+v, want 503 on no shard", res)
	}
	if got := scrape(t, reg, "cst_serve_unavailable_total"); got != "2" {
		t.Errorf("cst_serve_unavailable_total = %s, want 2", got)
	}
	if st := p.Snapshot(); st.Admitted != 1 || st.Responded != 1 {
		t.Errorf("ledger = %+v, want only the expired delta admitted and answered", st)
	}
}

// TestHTTPScheduleDelta exercises POST /schedule-delta end to end: open,
// warm apply, invalid delta and malformed JSON, each with its status.
func TestHTTPScheduleDelta(t *testing.T) {
	reg := obs.New()
	tr := obs.NewTracer(nil, 1024)
	p, err := New(Config{PEs: 16, Shards: 1, Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = p.Drain(ctx)
	}()
	srv := httptest.NewServer(Handler(p, nil, reg, tr))
	defer srv.Close()

	post := func(body string) (int, DeltaResult) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/schedule-delta", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var dr DeltaResult
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp.StatusCode, dr
	}

	code, dr := post(`{"session":3,"add":[{"src":0,"dst":7},{"src":1,"dst":2}]}`)
	if code != http.StatusOK || !dr.Fallback || dr.Size != 2 {
		t.Fatalf("open = %d %+v, want 200 fallback size 2", code, dr)
	}
	code, dr = post(`{"session":3,"remove":[{"src":1,"dst":2}],"add":[{"src":3,"dst":6}]}`)
	if code != http.StatusOK || dr.Fallback || dr.Size != 2 {
		t.Fatalf("warm = %d %+v, want 200 incremental size 2", code, dr)
	}
	code, dr = post(`{"session":3,"remove":[{"src":9,"dst":10}]}`)
	if code != http.StatusBadRequest || dr.Err == "" {
		t.Fatalf("invalid = %d %+v, want 400 with error", code, dr)
	}

	resp, err := http.Post(srv.URL+"/schedule-delta", "application/json", strings.NewReader(`{`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/schedule-delta")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d, want 405", resp.StatusCode)
	}
}

// TestWireDeltaRoundtrip exercises the delta frames end to end over a real
// connection, interleaved with pair requests on the same session slots.
func TestWireDeltaRoundtrip(t *testing.T) {
	addr, p, _, teardown := startWire(t, Config{PEs: 16, Shards: 2}, WireConfig{})
	defer teardown()

	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.SendDelta(&wire.DeltaRequest{ID: 1, Session: 9,
		Add: [][2]int{{0, 7}, {1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var dr wire.DeltaResponse
	if err := c.RecvDelta(&dr); err != nil {
		t.Fatal(err)
	}
	if dr.ID != 1 || dr.Session != 9 || dr.Status != http.StatusOK || !dr.Fallback || dr.Size != 2 {
		t.Fatalf("opening delta = %+v, want id 1 session 9 status 200 fallback size 2", dr)
	}

	if err := c.SendDelta(&wire.DeltaRequest{ID: 2, Session: 9,
		Remove: [][2]int{{1, 2}}, Add: [][2]int{{3, 6}, {4, 5}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.RecvDelta(&dr); err != nil {
		t.Fatal(err)
	}
	if dr.ID != 2 || dr.Status != http.StatusOK || dr.Fallback || dr.Size != 3 {
		t.Fatalf("warm delta = %+v, want incremental 200 size 3", dr)
	}
	if dr.Rounds <= 0 || dr.Width != dr.Rounds {
		t.Fatalf("warm delta schedule shape = %+v", dr)
	}

	// Invalid delta: 400 over the wire, session untouched.
	if err := c.SendDelta(&wire.DeltaRequest{ID: 3, Session: 9,
		Remove: [][2]int{{9, 10}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.RecvDelta(&dr); err != nil {
		t.Fatal(err)
	}
	if dr.ID != 3 || dr.Status != http.StatusBadRequest || dr.Err == "" || dr.Size != 3 {
		t.Fatalf("invalid delta = %+v, want 400 with error, size 3", dr)
	}

	// Pair requests interleave with deltas on the same connection.
	if err := c.Send(&wire.Request{ID: 4, Src: 2, Dst: 9}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 4 || resp.Status != http.StatusOK {
		t.Fatalf("pair after deltas = %+v", resp)
	}

	if st := p.Snapshot(); st.Admitted != st.Responded {
		t.Fatalf("ledger: admitted %d responded %d", st.Admitted, st.Responded)
	}
}

// TestDeltaChaosFallbackServed proves the serving path survives a faulted
// incremental apply: the delta still answers 200, flagged as served by
// the clean from-scratch fallback run.
func TestDeltaChaosFallbackServed(t *testing.T) {
	// Shard simulators get the fault plan; run 1 on the session engine is
	// the first incremental apply (run 0 opened it). fault.Phase1 is the
	// control-word float, where the warm path re-floats dirty paths.
	p, err := New(Config{PEs: 16, Shards: 1, Faults: deltaFaultPlan(t)})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = p.Drain(ctx)
	}()

	if res := p.ScheduleDelta(1, nil, []comm.Comm{{Src: 0, Dst: 7}}, 0); res.Status != http.StatusOK {
		t.Fatalf("open: %+v", res)
	}
	res := p.ScheduleDelta(1, nil, []comm.Comm{{Src: 8, Dst: 15}}, 0)
	if res.Status != http.StatusOK || !res.Fallback || res.Size != 2 {
		t.Fatalf("faulted delta = %+v, want 200 served by fallback, size 2", res)
	}
	// The recovered session is warm again.
	res = p.ScheduleDelta(1, []comm.Comm{{Src: 8, Dst: 15}}, nil, 0)
	if res.Status != http.StatusOK || res.Fallback {
		t.Fatalf("post-recovery delta = %+v, want warm 200", res)
	}
}

// deltaFaultPlan drops the Phase 1 up-word at leaf 8 on engine run 1 —
// the incremental apply of the {8,15} add, whose dirty path covers that
// leaf, so the warm re-float actually trips over the fault.
func deltaFaultPlan(t *testing.T) []fault.Fault {
	t.Helper()
	tr, err := topology.New(16)
	if err != nil {
		t.Fatal(err)
	}
	return []fault.Fault{{Kind: fault.DropWord, Node: tr.Leaf(8), Run: 1, Round: fault.Phase1}}
}
