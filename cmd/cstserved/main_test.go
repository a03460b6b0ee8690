package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"cst"
)

func testOptions(t *testing.T) options {
	t.Helper()
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	o.addr = "127.0.0.1:0"
	o.pes = 16
	o.shards = 1
	o.drainGrace = 30 * time.Second
	return o
}

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		ok    bool
		check func(options) bool
	}{
		// The command line servebench starts the server with; -batch-wait
		// is ignored but keeps parsing.
		{"servebench flags", []string{"-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0",
			"-pes", "1024", "-shards", "2", "-batch-max", "32", "-batch-wait", "2ms",
			"-queue-depth", "256", "-wire-pipeline", "64", "-trace-sample", "0"}, true,
			func(o options) bool {
				return o.addr == "127.0.0.1:0" && o.wireAddr == "127.0.0.1:0" && o.pes == 1024 &&
					o.shards == 2 && o.batchMax == 32 && o.queueDepth == 256 &&
					o.wirePipeline == 64 && o.traceSample == 0
			}},
		{"chaos", []string{"-chaos", "5", "-seed", "7"}, true,
			func(o options) bool { return o.chaos == 5 && o.seed == 7 }},
		{"zero shards", []string{"-shards", "0"}, false, nil},
		{"negative chaos", []string{"-chaos", "-1"}, false, nil},
		{"trace sample over 1", []string{"-trace-sample", "1.5"}, false, nil},
		// Single-value settings are constants, not flags.
		{"exact budget", []string{"-exact-budget", "10"}, false, nil},
		{"peel batches", []string{"-peel-batches", "2"}, false, nil},
		{"chaos rounds", []string{"-chaos-rounds", "32"}, false, nil},
	} {
		o, err := parseFlags(tc.args)
		if (err == nil) != tc.ok {
			t.Errorf("%s: parseFlags(%q) error = %v, want ok=%v", tc.name, tc.args, err, tc.ok)
			continue
		}
		if tc.ok && tc.check != nil && !tc.check(o) {
			t.Errorf("%s: parsed %+v", tc.name, o)
		}
	}

	// -chaos N draws N faults per shard over the 64-round window.
	o, err := parseFlags([]string{"-pes", "16", "-chaos", "5", "-seed", "7"})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaosPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	want := cst.RandomFaults(cst.NewRand(7), cst.MustNewTree(16), 64, 5, 0)
	if len(plan) != 5 || !reflect.DeepEqual(plan, want) {
		t.Fatalf("chaos plan %v, want %v", plan, want)
	}
	if plan, err := chaosPlan(testOptions(t)); err != nil || plan != nil {
		t.Fatalf("no -chaos: plan %v, err %v", plan, err)
	}
}

// TestServeScheduleAndDrain runs the binary's full lifecycle in-process:
// bind, schedule over HTTP, scrape /metrics, drain, and verify the drain
// summary balances.
func TestServeScheduleAndDrain(t *testing.T) {
	var out bytes.Buffer
	s, err := newServer(testOptions(t), &out)
	if err != nil {
		t.Fatal(err)
	}
	s.serve()
	base := "http://" + s.addr()

	resp, err := http.Post(base+"/schedule", "application/json",
		strings.NewReader(`{"src":0,"dst":7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /schedule = %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(body.String(), "cst_serve_requests_total 1") {
		t.Fatalf("/metrics missing serve series:\n%s", body.String())
	}

	if err := s.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !strings.Contains(out.String(), "admitted=1 responded=1") {
		t.Fatalf("drain summary: %q", out.String())
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestHTTPLimits pins the HTTP listener's bounds on hostile clients: an
// oversized body on any /schedule* endpoint is refused 413 without being
// read to its end, and a client that stalls mid-header is disconnected
// within the header timeout.
func TestHTTPLimits(t *testing.T) {
	s, err := newServer(testOptions(t), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s.srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", s.srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	// Shortened so the stall case does not sit out the full timeout.
	const headerTimeout = 200 * time.Millisecond
	s.srv.ReadHeaderTimeout = headerTimeout
	s.serve()
	defer func() {
		if err := s.drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	base := "http://" + s.addr()

	// Valid JSON padded with whitespace to 1 MiB, far past the body cap.
	huge := `{"src":0,"dst":1` + strings.Repeat(" ", 1<<20) + `}`
	oversized := func(path string) func() (int, error) {
		return func() (int, error) {
			resp, err := http.Post(base+path, "application/json", strings.NewReader(huge))
			if err != nil {
				return 0, err
			}
			resp.Body.Close()
			return resp.StatusCode, nil
		}
	}
	stalledHeader := func() (int, error) {
		conn, err := net.Dial("tcp", s.addr())
		if err != nil {
			return 0, err
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "POST /schedule HTTP/1.1\r\nHost: cstserved\r\n"); err != nil {
			return 0, err
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			return 0, fmt.Errorf("read after a stalled header: %d bytes, %v; want the server to close", n, err)
		}
		return 0, nil
	}
	for _, tc := range []struct {
		name   string
		send   func() (int, error)
		want   int // response status; 0 = closed without an answer
		within time.Duration
	}{
		{"oversized /schedule body", oversized("/schedule"), http.StatusRequestEntityTooLarge, 5 * time.Second},
		{"oversized /schedule-set body", oversized("/schedule-set"), http.StatusRequestEntityTooLarge, 5 * time.Second},
		{"oversized /schedule-delta body", oversized("/schedule-delta"), http.StatusRequestEntityTooLarge, 5 * time.Second},
		{"header stalled mid-request", stalledHeader, 0, headerTimeout + 2*time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			got, err := tc.send()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("status %d, want %d", got, tc.want)
			}
			if elapsed := time.Since(start); elapsed > tc.within {
				t.Fatalf("took %v, want under %v", elapsed, tc.within)
			}
		})
	}
}

// TestServeWireAddr boots with the wire listener enabled, schedules over
// both protocols, checks the per-protocol metric split, and drains.
func TestServeWireAddr(t *testing.T) {
	o := testOptions(t)
	o.wireAddr = "127.0.0.1:0"
	var out bytes.Buffer
	s, err := newServer(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	s.serve()
	base := "http://" + s.addr()

	c, err := cst.WireDial(s.wireAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		if err := c.Send(&cst.WireRequest{ID: uint64(i), Src: i * 2, Dst: i*2 + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var wresp cst.WireResponse
	for i := 0; i < 2; i++ {
		if err := c.Recv(&wresp); err != nil {
			t.Fatal(err)
		}
		if wresp.Status != http.StatusOK {
			t.Fatalf("wire response %d: %+v", i, wresp)
		}
	}
	resp, err := http.Post(base+"/schedule", "application/json",
		strings.NewReader(`{"src":10,"dst":11}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /schedule = %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"cst_serve_requests_total 3",
		`cst_serve_requests_total{protocol="wire"} 2`,
		`cst_serve_requests_total{protocol="http"} 1`,
		"cst_serve_wire_conns 1",
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if err := s.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !strings.Contains(out.String(), "admitted=3 responded=3") {
		t.Fatalf("drain summary: %q", out.String())
	}
}

// TestServeAuditAndTraceOut exercises the optional sinks: the live auditor
// reports on drain and the JSONL trace stream lands on disk.
func TestServeAuditAndTraceOut(t *testing.T) {
	o := testOptions(t)
	o.audit = true
	o.engineMetrics = true
	o.traceSample = 1 // serve.flush/serve.done only fire for sampled batches
	o.traceOut = filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	s, err := newServer(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	s.serve()
	base := "http://" + s.addr()
	for _, payload := range []string{`{"src":0,"dst":3}`, `{"src":8,"dst":15}`} {
		resp, err := http.Post(base+"/schedule", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /schedule = %d", resp.StatusCode)
		}
	}
	if err := s.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !strings.Contains(out.String(), "runs") {
		t.Fatalf("audit summary missing from drain output: %q", out.String())
	}
	data, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"type":"serve.flush"`) {
		t.Fatalf("trace stream missing serve events:\n%.400s", data)
	}
}

// TestServeChaos boots with a fault plan armed; requests must still get
// terminal answers (scheduled or quarantined) and drain must balance.
func TestServeChaos(t *testing.T) {
	o := testOptions(t)
	o.chaos = 6
	var out bytes.Buffer
	s, err := newServer(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	s.serve()
	base := "http://" + s.addr()
	for i := 0; i < 6; i++ {
		resp, err := http.Post(base+"/schedule", "application/json",
			strings.NewReader(`{"src":`+strconv.Itoa(i*2)+`,"dst":`+strconv.Itoa(i*2+1)+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if err := s.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !strings.Contains(out.String(), "admitted=6 responded=6") {
		t.Fatalf("drain summary: %q", out.String())
	}
}
