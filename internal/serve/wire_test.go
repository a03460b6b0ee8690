package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"cst/internal/obs"
	"cst/internal/wire"
)

// startWire spins up a pool and a wire server on a loopback listener,
// returning the dial address and a teardown that drains in the documented
// order: pool first (settles every in-flight call), wire second.
func startWire(t *testing.T, cfg Config, wcfg WireConfig) (string, *Pool, *WireServer, func()) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	ws := NewWireServer(p, wcfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ws.Serve(ln) }()
	teardown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := p.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		if err := ws.Shutdown(ctx); err != nil {
			t.Errorf("wire shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	return ln.Addr().String(), p, ws, teardown
}

func TestWireRoundtrip(t *testing.T) {
	addr, _, _, teardown := startWire(t, Config{PEs: 16, Shards: 1}, WireConfig{})
	defer teardown()

	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&wire.Request{ID: 7, Src: 2, Dst: 9}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 || resp.Status != http.StatusOK {
		t.Fatalf("response = %+v, want id 7 status 200", resp)
	}
	if resp.Finished < resp.Arrival || resp.LatencyRounds != resp.Finished-resp.Arrival {
		t.Fatalf("inconsistent rounds: %+v", resp)
	}

	// Bad endpoints are refused inline with the same taxonomy as HTTP.
	if err := c.Send(&wire.Request{ID: 8, Src: 3, Dst: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 8 || resp.Status != http.StatusBadRequest || resp.Err == "" {
		t.Fatalf("bad-endpoint response = %+v, want id 8 status 400 with error", resp)
	}
}

// Pipelined requests on one connection must all be answered, correlated
// by id, regardless of completion order.
func TestWirePipelining(t *testing.T) {
	addr, p, _, teardown := startWire(t,
		Config{PEs: 64, Shards: 2, BatchWait: time.Millisecond}, WireConfig{MaxPipeline: 32})
	defer teardown()

	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 100
	want := make(map[uint64][2]int, n)
	next := 0
	for i := 0; i < n; i++ {
		src, dst := next, next+1
		next = (next + 2) % 64
		id := uint64(1000 + i)
		want[id] = [2]int{src, dst}
		if err := c.Send(&wire.Request{ID: id, Src: src, Dst: dst}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	for i := 0; i < n; i++ {
		if err := c.Recv(&resp); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if _, ok := want[resp.ID]; !ok {
			t.Fatalf("recv %d: unknown or duplicate id %d", i, resp.ID)
		}
		delete(want, resp.ID)
		if resp.Status != http.StatusOK {
			t.Fatalf("id %d: status %d (%s)", resp.ID, resp.Status, resp.Err)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d responses never arrived", len(want))
	}
	if st := p.Snapshot(); st.Admitted != st.Responded {
		t.Fatalf("ledger: admitted %d responded %d", st.Admitted, st.Responded)
	}
}

// TestWireHandshakeOneVersion pins the one-version handshake from both
// ends, for offers older and newer than wire.Version. The server answers
// such a hello with an accept carrying wire.Version, then closes the
// connection and ticks the protocol-error counter; a client whose peer
// answers such a version fails with ErrVersion.
func TestWireHandshakeOneVersion(t *testing.T) {
	reg := obs.New()
	addr, _, _, teardown := startWire(t, Config{PEs: 8, Shards: 1}, WireConfig{Registry: reg})
	defer teardown()

	for i, other := range []uint8{1, 3, wire.Version + 1} {
		t.Run(fmt.Sprintf("v%d", other), func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write(wire.AppendHello(nil, other)); err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(conn)
			if err != nil {
				t.Fatalf("connection left open after the accept: %v", err)
			}
			if v, err := wire.ParseHello(b); err != nil || v != wire.Version || len(b) != wire.HandshakeBytes {
				t.Fatalf("server answered % x to a v%d hello, want one accept carrying v%d", b, other, wire.Version)
			}
			deadline := time.Now().Add(5 * time.Second)
			for reg.Snapshot().Counters["cst_serve_wire_protocol_errors_total"] < int64(i+1) {
				if time.Now().After(deadline) {
					t.Fatal("protocol error never counted")
				}
				time.Sleep(time.Millisecond)
			}

			cli, srv := net.Pipe()
			defer srv.Close()
			go func() {
				hello := make([]byte, wire.HandshakeBytes)
				if _, err := io.ReadFull(srv, hello); err == nil {
					srv.Write(wire.AppendHello(nil, other))
				}
			}()
			if _, err := wire.NewClientConn(cli, time.Second); !errors.Is(err, wire.ErrVersion) {
				t.Fatalf("NewClientConn against a v%d peer: %v, want ErrVersion", other, err)
			}
		})
	}
}

// Garbage after the handshake must close the connection and tick the
// protocol-error counter; a bad hello must never reach the accept reply.
func TestWireProtocolErrors(t *testing.T) {
	reg := obs.New()
	addr, _, _, teardown := startWire(t, Config{PEs: 8, Shards: 1}, WireConfig{Registry: reg})
	defer teardown()

	// Bad magic: connection dies before any accept message.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("JUNK\x01"))
	if b, _ := io.ReadAll(conn); len(b) != 0 {
		t.Fatalf("server answered %x to a bad hello", b)
	}
	conn.Close()

	// Oversized frame claim after a good handshake: connection dies after
	// the accept message without a response frame.
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(wire.AppendHello(nil, wire.Version))
	var accept [wire.HandshakeBytes]byte
	if _, err := io.ReadFull(conn, accept[:]); err != nil {
		t.Fatal(err)
	}
	conn.Write(binary.AppendUvarint(nil, wire.MaxFrameBytes+1))
	if b, _ := io.ReadAll(conn); len(b) != 0 {
		t.Fatalf("server answered %x to an oversized frame", b)
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if reg.Snapshot().Counters["cst_serve_wire_protocol_errors_total"] >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("protocol errors = %d, want 2",
				reg.Snapshot().Counters["cst_serve_wire_protocol_errors_total"])
		}
		time.Sleep(time.Millisecond)
	}
}

// Drain with pipelined requests in flight: every admitted request is
// answered on the wire before the connection dies, and the ledger closes
// at zero loss.
func TestWireDrainZeroLoss(t *testing.T) {
	addr, p, ws, _ := startWire(t,
		Config{PEs: 64, Shards: 2, BatchWait: 5 * time.Millisecond}, WireConfig{MaxPipeline: 16})

	// Every client finishes its handshake before the drain starts: a
	// Shutdown that lands mid-handshake closes the connection before it
	// carries a request, which is not the drain under test.
	const clients = 4
	conns := make([]*wire.ClientConn, clients)
	for ci := range conns {
		c, err := wire.Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[ci] = c
	}
	var wg sync.WaitGroup
	got := make([]int, clients)
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *wire.ClientConn) {
			defer wg.Done()
			sent := 0
			for i := 0; i < 40; i++ {
				src := (ci*16 + i*2) % 63
				if err := c.Send(&wire.Request{ID: uint64(i), Src: src, Dst: src + 1}); err != nil {
					break
				}
				sent++
			}
			if err := c.Flush(); err != nil {
				return
			}
			var resp wire.Response
			for i := 0; i < sent; i++ {
				if err := c.Recv(&resp); err != nil {
					return // drain may 503 the tail, but counted answers only
				}
				got[ci]++
			}
		}(ci, c)
	}

	// Let the burst land, then drain mid-stream. Landing is read off the
	// pool's admission counter: on a loaded machine a fixed sleep alone
	// can end before any request has reached the server.
	deadline := time.Now().Add(5 * time.Second)
	for p.Snapshot().Admitted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no request admitted before the drain")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := ws.Shutdown(ctx); err != nil {
		t.Fatalf("wire shutdown: %v", err)
	}
	wg.Wait()

	// Drain's internal ledger already failed the test on loss; the wire
	// layer must additionally have delivered every answer for a client
	// that sent its whole burst before the drain (weaker check here: all
	// clients got as many answers as requests the server admitted for
	// them — verified in aggregate).
	st := p.Snapshot()
	if st.Admitted != st.Responded {
		t.Fatalf("ledger: admitted %d responded %d", st.Admitted, st.Responded)
	}
	total := 0
	for _, n := range got {
		total += n
	}
	if total == 0 {
		t.Fatal("no client received any answer")
	}
}

// The per-protocol metric series must attribute wire traffic to
// protocol="wire" while the unlabeled aggregates keep counting everything.
func TestWirePerProtocolMetrics(t *testing.T) {
	reg := obs.New()
	addr, p, _, teardown := startWire(t,
		Config{PEs: 16, Shards: 1, Registry: reg}, WireConfig{Registry: reg})

	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Send(&wire.Request{ID: uint64(i), Src: i * 2, Dst: i*2 + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	for i := 0; i < 3; i++ {
		if err := c.Recv(&resp); err != nil {
			t.Fatal(err)
		}
	}
	if res := p.Schedule(10, 11, 0); res.Status != http.StatusOK {
		t.Fatalf("http schedule: %+v", res)
	}
	c.Close()
	teardown()

	snap := reg.Snapshot()
	checks := map[string]int64{
		"cst_serve_requests_total":                   4,
		`cst_serve_requests_total{protocol="wire"}`:  3,
		`cst_serve_requests_total{protocol="http"}`:  1,
		"cst_serve_scheduled_total":                  4,
		`cst_serve_scheduled_total{protocol="wire"}`: 3,
		`cst_serve_scheduled_total{protocol="http"}`: 1,
		"cst_serve_wire_conns_total":                 1,
		"cst_serve_wire_protocol_errors_total":       0,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["cst_serve_wire_conns"]; got != 0 {
		t.Errorf("open conns after teardown = %d", got)
	}
}

// The steady-state wire request cycle must not allocate: after warmup,
// whole-process Mallocs across a run of requests stays under a small
// epsilon per request. testing.AllocsPerRun only meters the calling
// goroutine, so this pins the server side (reader, worker, writer) the
// only way that counts — with runtime.ReadMemStats around real traffic.
func TestWireServeAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pin needs a quiet heap")
	}
	// A tracer with sampling off (the production default) must not cost the
	// unsampled hot path anything: span ids ride the pooled slot as values.
	tr := obs.NewTracer(nil, 64)
	tr.SetSampleRate(0)
	tr.SetFlight(obs.NewFlightRecorder(4))
	addr, _, _, teardown := startWire(t,
		// BatchWait 0 flushes immediately: the timer never arms, so the
		// measurement has no timer-goroutine noise.
		Config{PEs: 64, Shards: 1, BatchWait: 0, Tracer: tr},
		WireConfig{MaxPipeline: 8, Tracer: tr})
	defer teardown()

	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var resp wire.Response
	roundtrip := func(n int) {
		for i := 0; i < n; i++ {
			if err := c.Send(&wire.Request{ID: uint64(i), Src: 4, Dst: 29}); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := c.Recv(&resp); err != nil {
				t.Fatal(err)
			}
			if resp.Status != http.StatusOK {
				t.Fatalf("status %d (%s)", resp.Status, resp.Err)
			}
		}
	}

	roundtrip(200) // warm every pool, map bucket and scratch buffer

	const measured = 400
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	roundtrip(measured)
	runtime.ReadMemStats(&after)

	perReq := float64(after.Mallocs-before.Mallocs) / measured
	// Zero in steady state; the epsilon absorbs stray runtime activity
	// (GC bookkeeping, background sweeps) that is not per-request.
	if perReq > 0.05 {
		t.Errorf("wire serve hot path allocates %.3f objects/request, want 0 (%d allocs over %d requests)",
			perReq, after.Mallocs-before.Mallocs, measured)
	}
}

// A non-well-nested set plans end to end over the wire protocol, on the
// same connection as pair requests, and an invalid set is refused with
// the HTTP taxonomy.
func TestWireSetRoundtrip(t *testing.T) {
	reg := obs.New()
	pl := NewPlanner(PlannerConfig{Registry: reg})
	addr, _, _, teardown := startWire(t,
		Config{PEs: 16, Shards: 1, Registry: reg}, WireConfig{Planner: pl, Registry: reg})
	defer teardown()

	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A pair request first: the same slots serve both frame kinds.
	if err := c.Send(&wire.Request{ID: 1, Src: 2, Dst: 9}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 1 || resp.Status != http.StatusOK {
		t.Fatalf("pair response = %+v", resp)
	}

	// Crossing pairs plus a left-oriented comm: not well nested, not
	// right-oriented — only the hybrid planner can take it.
	req := wire.SetRequest{ID: 2, N: 16, Pairs: [][2]int{{0, 8}, {12, 4}, {2, 9}}}
	if err := c.SendSet(&req); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var sr wire.SetResponse
	if err := c.RecvSet(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.ID != 2 || sr.Status != http.StatusOK {
		t.Fatalf("set response = %+v", sr)
	}
	if sr.Rounds < 1 || sr.Rounds > sr.Bound || sr.Units <= 0 {
		t.Fatalf("set plan shape: %+v", sr)
	}
	if sr.Strategy != wire.StrategyPeel && sr.Strategy != wire.StrategyColoring {
		t.Fatalf("strategy code %d", sr.Strategy)
	}

	// An invalid set (self loop) answers 400 without killing the session.
	if err := c.SendSet(&wire.SetRequest{ID: 3, N: 16, Pairs: [][2]int{{5, 5}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.RecvSet(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.ID != 3 || sr.Status != http.StatusBadRequest || sr.Err == "" {
		t.Fatalf("invalid set response = %+v", sr)
	}

	// The session survives: a further pair request still works.
	if err := c.Send(&wire.Request{ID: 4, Src: 10, Dst: 13}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 4 || resp.Status != http.StatusOK {
		t.Fatalf("post-set pair response = %+v", resp)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[`cst_hybrid_requests_total{protocol="wire"}`]; got != 2 {
		t.Errorf(`wire set requests = %d, want 2`, got)
	}
	if got := snap.Counters[`cst_hybrid_planned_total{protocol="wire"}`]; got != 1 {
		t.Errorf(`wire sets planned = %d, want 1`, got)
	}
}

// A server without a planner answers set frames with 501 instead of
// treating them as protocol violations — the frame is legal, the feature
// is just off.
func TestWireSetWithoutPlanner(t *testing.T) {
	addr, _, _, teardown := startWire(t, Config{PEs: 16, Shards: 1}, WireConfig{})
	defer teardown()

	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendSet(&wire.SetRequest{ID: 1, N: 16, Pairs: [][2]int{{0, 8}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var sr wire.SetResponse
	if err := c.RecvSet(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Status != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", sr.Status)
	}
}

// benchWirePool builds a started pool + wire server for benchmarks.
func benchWirePool(b *testing.B, shards int, batchWait time.Duration) (string, func()) {
	b.Helper()
	p, err := New(Config{PEs: 64, Shards: shards, BatchWait: batchWait, QueueDepth: 256})
	if err != nil {
		b.Fatal(err)
	}
	p.Start()
	ws := NewWireServer(p, WireConfig{MaxPipeline: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go ws.Serve(ln)
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		p.Drain(ctx)
		ws.Shutdown(ctx)
	}
}

// BenchmarkWireServeSerial is the latency benchmark: one connection, one
// request in flight — ns/op is the full client-observed round trip.
func BenchmarkWireServeSerial(b *testing.B) {
	addr, stop := benchWirePool(b, 1, 0)
	defer stop()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var resp wire.Response
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(&wire.Request{ID: uint64(i), Src: 4, Dst: 29}); err != nil {
			b.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := c.Recv(&resp); err != nil {
			b.Fatal(err)
		}
		if resp.Status != http.StatusOK {
			b.Fatalf("status %d (%s)", resp.Status, resp.Err)
		}
	}
	b.StopTimer()
	reportReqPerSec(b)
}

// BenchmarkWireServePipelined is the throughput benchmark: one connection
// with a deep pipeline. BatchWait stays 0 — a pipelined burst batches
// naturally off the queue, so an arming delay would only add latency.
func BenchmarkWireServePipelined(b *testing.B) {
	addr, stop := benchWirePool(b, 2, 0)
	defer stop()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const window = 32
	var resp wire.Response
	b.ReportAllocs()
	b.ResetTimer()
	inflight := 0
	src := 0
	for i := 0; i < b.N; i++ {
		if err := c.Send(&wire.Request{ID: uint64(i), Src: src, Dst: src + 1}); err != nil {
			b.Fatal(err)
		}
		src = (src + 2) % 64
		inflight++
		if inflight == window {
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
			for ; inflight > window/2; inflight-- {
				if err := c.Recv(&resp); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	for ; inflight > 0; inflight-- {
		if err := c.Recv(&resp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportReqPerSec(b)
}

func reportReqPerSec(b *testing.B) {
	if d := b.Elapsed(); d > 0 {
		b.ReportMetric(float64(b.N)/d.Seconds(), "req/s")
	}
}

// brokenWriter fails every write, standing in for a connection the client
// abandoned mid-pipeline.
type brokenWriter struct{}

func (brokenWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

// A client that disconnects with answers still in flight must not leak
// open traces: the writer can no longer deliver the frames, but the
// requests did run, so their root spans still close and the flight
// recorder finalizes their trees.
func TestWriteLoopClosesSpansAfterWriteError(t *testing.T) {
	tr := obs.NewTracer(nil, 64)
	tr.SetSampleRate(1)
	fr := obs.NewFlightRecorder(4)
	tr.SetFlight(fr)
	s := NewWireServer(nil, WireConfig{MaxPipeline: 2, Tracer: tr})
	b := s.newBundle()
	b.bw.Reset(brokenWriter{})

	done := make(chan struct{})
	go s.writeLoop(b, done)
	for i := 0; i < 2; i++ {
		wc := <-b.free
		wc.isSet = false
		wc.sp = tr.StartServer("wire.schedule", "serve", obs.SpanContext{})
		wc.res = Result{Status: 200}
		b.out <- wc // first one trips the flush error; second rides the dead path
	}
	b.out <- nil
	<-done

	snap := fr.Snapshot()
	if snap.Finished != 2 || snap.OpenTraces != 0 {
		t.Fatalf("finished=%d open=%d, want 2/0", snap.Finished, snap.OpenTraces)
	}
}
