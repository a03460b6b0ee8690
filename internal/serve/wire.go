// The wire server is the binary-protocol front end of a Pool: persistent
// TCP connections speaking the internal/wire framing, pipelined requests
// correlated by id, and a steady-state request cycle that allocates
// nothing. All per-request state lives in a fixed set of slots owned by
// the connection (acquired once per connection from a sync.Pool), so the
// read → admit → schedule → encode → write cycle touches only memory that
// already exists.
//
// Per connection, two goroutines split the work:
//
//   - the reader owns the connection's read side and the request scratch:
//     it decodes frames, leases a slot (blocking when MaxPipeline requests
//     are in flight — the slot freelist is the pipelining window), and
//     admits the slot's call into the pool;
//   - the writer owns the write side and the encode scratch: it drains
//     settled slots off the out channel, encodes response frames, flushes
//     when the channel runs empty, and returns slots to the freelist.
//
// A settled call reaches the writer through the slot's done callback,
// which the shard worker invokes inline; the callback only performs a
// buffered channel send, so a slow connection never blocks a worker — the
// out channel's capacity equals the slot count, and a slot cannot be
// settled twice.
package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cst/internal/comm"
	"cst/internal/obs"
	"cst/internal/wire"
)

// DefaultMaxPipeline bounds in-flight requests per wire connection when
// WireConfig leaves MaxPipeline zero.
const DefaultMaxPipeline = 64

// wireHandshakeTimeout bounds how long an accepted connection may sit
// before completing the version handshake.
const wireHandshakeTimeout = 5 * time.Second

// ErrWireClosed is returned by Serve after Shutdown, mirroring
// http.ErrServerClosed (it is swallowed by Serve itself on a clean
// shutdown and surfaces only from a second Serve call).
var ErrWireClosed = errors.New("serve: wire server closed")

// WireConfig parameterizes a WireServer.
type WireConfig struct {
	// MaxPipeline bounds the requests in flight on one connection; a
	// client that pipelines deeper blocks in the kernel until answers
	// drain. It is also the slot count, so memory per connection is
	// proportional. Zero means DefaultMaxPipeline.
	MaxPipeline int
	// Planner answers set requests (TypeSetRequest frames). Nil makes the
	// server answer them with status 501.
	Planner *Planner
	// Registry receives the cst_serve_wire_* series; nil leaves the
	// server uninstrumented.
	Registry *obs.Registry
	// Tracer receives connection lifecycle events; nil no-ops.
	Tracer *obs.Tracer
}

// wireMetrics holds the cst_serve_wire_* handles (nil handles no-op).
type wireMetrics struct {
	conns      *obs.Gauge
	connsTotal *obs.Counter
	protoErrs  *obs.Counter
}

func newWireMetrics(r *obs.Registry) wireMetrics {
	return wireMetrics{
		conns:      r.Gauge("cst_serve_wire_conns", "open wire-protocol connections"),
		connsTotal: r.Counter("cst_serve_wire_conns_total", "wire-protocol connections accepted"),
		protoErrs:  r.Counter("cst_serve_wire_protocol_errors_total", "protocol violations that closed a wire connection"),
	}
}

// WireServer accepts wire-protocol connections and feeds their requests
// into a Pool. Construct with NewWireServer, run with Serve, stop with
// Shutdown — after the pool has drained, so in-flight answers are already
// settled and only need flushing.
type WireServer struct {
	pool    *Pool
	cfg     WireConfig
	met     wireMetrics
	tracer  *obs.Tracer
	bundles sync.Pool

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool
	wg       sync.WaitGroup
}

// NewWireServer builds a wire front end over p.
func NewWireServer(p *Pool, cfg WireConfig) *WireServer {
	if cfg.MaxPipeline <= 0 {
		cfg.MaxPipeline = DefaultMaxPipeline
	}
	s := &WireServer{
		pool:   p,
		cfg:    cfg,
		met:    newWireMetrics(cfg.Registry),
		tracer: cfg.Tracer,
		conns:  make(map[net.Conn]struct{}),
	}
	s.bundles.New = func() any { return s.newBundle() }
	return s
}

// wireCall is one connection slot: a pooled call plus the spot its
// terminal Result lands in. The call's done closure is built once per
// slot and survives bundle reuse. Set requests reuse the same slots for
// ordering and backpressure: isSet routes the writer to setRes instead of
// res, and is cleared when the slot is leased for a pair request.
type wireCall struct {
	c      call
	res    Result
	isSet  bool
	setRes SetResult
	// Delta requests also ride the slots. Unlike pair requests, the
	// decode scratch is slot-owned, not connection-owned: the mutation
	// pair slices stay live until the shard worker applies them, which
	// may be after the reader has moved on to the next frame.
	isDelta  bool
	dreq     wire.DeltaRequest
	delta    serveDelta
	deltaRes DeltaResult
	// sp is the request's root span ("wire.schedule" / "wire.plan" /
	// "wire.delta"), opened by the reader and closed by the writer after
	// the response frame is written. It is a value embedded in the pooled
	// slot, so the unsampled path stays allocation-free.
	sp obs.Span
}

// connBundle is the per-connection working set, pooled across
// connections: the slot array, the freelist (doubling as the pipelining
// window), the settled-slot channel feeding the writer, and the reader
// and writer scratch. The out channel holds one extra space for the nil
// sentinel the reader uses to stop the writer, which keeps the channels
// reusable (a closed channel could not go back in the pool).
type connBundle struct {
	slots     []*wireCall
	free      chan *wireCall
	out       chan *wireCall
	rd        *wire.Reader
	bw        *bufio.Writer
	req       wire.Request       // reader-owned decode scratch
	setReq    wire.SetRequest    // reader-owned set decode scratch
	set       comm.Set           // reader-owned set build scratch
	resp      wire.Response      // writer-owned encode scratch
	setResp   wire.SetResponse   // writer-owned set encode scratch
	deltaResp wire.DeltaResponse // writer-owned delta encode scratch
	enc       []byte             // writer-owned frame scratch
}

func (s *WireServer) newBundle() *connBundle {
	n := s.cfg.MaxPipeline
	b := &connBundle{
		slots: make([]*wireCall, n),
		free:  make(chan *wireCall, n),
		out:   make(chan *wireCall, n+1),
		rd:    wire.NewReader(nil),
		bw:    bufio.NewWriterSize(nil, 4096),
	}
	for i := range b.slots {
		wc := &wireCall{}
		wc.c.proto = protoWire
		out := b.out
		wc.c.done = func(res Result) {
			wc.res = res
			out <- wc
		}
		wc.delta.done = func(res DeltaResult) {
			wc.deltaRes = res
			out <- wc
		}
		b.slots[i] = wc
		b.free <- wc
	}
	return b
}

// Serve accepts connections on ln until Shutdown closes it. A clean
// shutdown returns nil; calling Serve on an already-shut-down server
// returns ErrWireClosed.
func (s *WireServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return ErrWireClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			down := s.shutdown
			s.mu.Unlock()
			if down {
				return nil
			}
			return fmt.Errorf("serve: wire accept: %w", err)
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Shutdown stops accepting, pokes every open connection's reader off its
// blocking read, and waits for the connection handlers to finish — each
// one reclaims its in-flight slots (already settled once the pool has
// drained), flushes buffered answers and closes. Call after Pool.Drain.
func (s *WireServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown = true
	ln := s.ln
	now := time.Now()
	for c := range s.conns {
		_ = c.SetReadDeadline(now)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: wire shutdown: %w", ctx.Err())
	}
}

func (s *WireServer) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// handshake reads the client hello straight off the raw connection (the
// framed reader attaches after, so nothing is over-read) and answers it
// with wire.Version. A hello offering any other version still gets that
// answer, so the client can name the mismatch, and then an error that
// closes the connection.
func (s *WireServer) handshake(conn net.Conn) error {
	_ = conn.SetReadDeadline(time.Now().Add(wireHandshakeTimeout))
	var hello [wire.HandshakeBytes]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return fmt.Errorf("handshake read: %w", err)
	}
	// Only a bad magic goes unanswered: a hello carrying version 0
	// (ErrVersion) is answered like any other mismatch below.
	offered, err := wire.ParseHello(hello[:])
	if errors.Is(err, wire.ErrBadMagic) {
		return err
	}
	var accept [wire.HandshakeBytes]byte
	if _, err := conn.Write(wire.AppendHello(accept[:0], wire.Version)); err != nil {
		return fmt.Errorf("handshake write: %w", err)
	}
	if offered != wire.Version {
		return fmt.Errorf("%w: client offered v%d, server speaks v%d", wire.ErrVersion, offered, wire.Version)
	}
	return nil
}

// handle runs one connection: handshake, then the reader loop described
// in the package comment. It always reclaims every slot before returning
// the bundle to the pool, so a bundle re-enters the pool quiescent.
func (s *WireServer) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()

	if err := s.handshake(conn); err != nil {
		s.met.protoErrs.Inc()
		return
	}
	// Clearing the handshake deadline must not race a Shutdown poke:
	// both happen under mu, and a post-poke clear is prevented by the
	// shutdown check.
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	s.mu.Unlock()

	s.met.conns.Add(1)
	s.met.connsTotal.Inc()
	defer s.met.conns.Add(-1)
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{Type: "wire.conn", Engine: "serve", Round: -1, N: 1})
	}

	b := s.bundles.Get().(*connBundle)
	defer s.bundles.Put(b)
	b.rd.Reset(conn)
	b.bw.Reset(conn)

	writerDone := make(chan struct{})
	go s.writeLoop(b, writerDone)

	for {
		typ, body, err := b.rd.Next()
		if err != nil {
			if isWireProtocolErr(err) {
				s.met.protoErrs.Inc()
			}
			break
		}
		switch typ {
		case wire.TypeRequest:
			if err := wire.ParseRequestV(body, &b.req, wire.Version); err != nil {
				s.met.protoErrs.Inc()
				goto teardown
			}
			// Lease a slot; blocking here is the pipelining window — the
			// connection stops reading until an in-flight answer frees
			// one.
			wc := <-b.free
			wc.isSet, wc.isDelta = false, false
			wc.c.arm(b.req.Src, b.req.Dst, b.req.Deadline())
			wc.c.id = b.req.ID
			s.startRoot(wc, "wire.schedule", b.req.Trace, b.req.Span, b.req.Flags)
			s.pool.admit(&wc.c)
		case wire.TypeSetRequest:
			if err := wire.ParseSetRequestV(body, &b.setReq, wire.Version); err != nil {
				s.met.protoErrs.Inc()
				goto teardown
			}
			// A set plan runs inline on the reader — planning is
			// mutex-serialized CPU work, and answering in arrival order
			// through the same slot/out machinery keeps the response
			// stream coherent with pipelined pair requests.
			wc := <-b.free
			wc.isSet, wc.isDelta = true, false
			wc.c.id = b.setReq.ID
			wc.c.enq = time.Now()
			s.startRoot(wc, "wire.plan", b.setReq.Trace, b.setReq.Span, b.setReq.Flags)
			b.set.N = b.setReq.N
			b.set.Comms = b.set.Comms[:0]
			for _, pr := range b.setReq.Pairs {
				b.set.Comms = append(b.set.Comms, comm.Comm{Src: pr[0], Dst: pr[1]})
			}
			wc.setRes = s.cfg.Planner.plan(&b.set, protoWire, false, wc.c.sctx)
			b.out <- wc
		case wire.TypeDeltaRequest:
			// Lease the slot BEFORE decoding: the delta decode scratch is
			// slot-owned, because its pair slices must survive until the
			// pinned shard worker applies the mutation.
			wc := <-b.free
			if err := wire.ParseDeltaRequest(body, &wc.dreq); err != nil {
				s.met.protoErrs.Inc()
				b.free <- wc
				goto teardown
			}
			wc.isSet, wc.isDelta = false, true
			wc.c.arm(0, 0, wc.dreq.Deadline())
			wc.c.id = wc.dreq.ID
			s.startRoot(wc, "wire.delta", wc.dreq.Trace, wc.dreq.Span, wc.dreq.Flags)
			sd := &wc.delta
			sd.session = wc.dreq.Session
			sd.remove = sd.remove[:0]
			for _, pr := range wc.dreq.Remove {
				sd.remove = append(sd.remove, comm.Comm{Src: pr[0], Dst: pr[1]})
			}
			sd.add = sd.add[:0]
			for _, pr := range wc.dreq.Add {
				sd.add = append(sd.add, comm.Comm{Src: pr[0], Dst: pr[1]})
			}
			wc.c.delta = sd
			s.pool.admit(&wc.c)
		default:
			// A response frame from a client is as fatal as a type the
			// decoder never heard of.
			s.met.protoErrs.Inc()
			goto teardown
		}
	}
teardown:

	// Teardown: reclaim every slot. In-flight ones come back through
	// settle → done → writer → freelist; the pool settles every admitted
	// call (drain included), so this converges. Only then may the writer
	// stop — the nil sentinel keeps the channel reusable.
	for range b.slots {
		<-b.free
	}
	b.out <- nil
	<-writerDone
	for _, wc := range b.slots {
		b.free <- wc
	}
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{Type: "wire.conn", Engine: "serve", Round: -1, N: 0})
	}
}

// startRoot opens a request's root span from its frame's trace block and
// arms the slot's call with its context: the block may continue (and
// force-sample) the client's trace; otherwise the head decision applies.
// An unsampled request gets the zero Span — no allocation on this path.
func (s *WireServer) startRoot(wc *wireCall, name string, trace, span uint64, flags uint8) {
	wc.sp = s.tracer.StartServer(name, "serve", obs.SpanContext{
		Trace:   obs.TraceID(trace),
		Span:    obs.SpanID(span),
		Sampled: flags&wire.FlagSampled != 0,
	})
	wc.c.sctx = wc.sp.Context()
}

// writeLoop drains settled slots, encodes their response frames and
// returns the slots to the freelist. After a write error it keeps
// draining (slots must reach the freelist for teardown to converge) but
// stops touching the dead connection. Spans still close on that path:
// the request ran to completion server-side, and a root left open would
// pin its trace in the flight recorder's open table forever.
func (s *WireServer) writeLoop(b *connBundle, done chan<- struct{}) {
	defer close(done)
	var werr error
	for {
		wc := <-b.out
		if wc == nil {
			break
		}
		var status int
		var errmsg, rootName string
		switch {
		case wc.isDelta:
			status, errmsg, rootName = wc.deltaRes.Status, wc.deltaRes.Err, "wire.delta"
		case wc.isSet:
			status, errmsg, rootName = wc.setRes.Status, wc.setRes.Err, "wire.plan"
		default:
			status, errmsg, rootName = wc.res.Status, wc.res.Err, "wire.schedule"
		}
		// Always-sample-on-error: a refused or failed request that was
		// not head-sampled still gets a retroactive root span, so its
		// trace id reaches the client and the flight recorder.
		sctx := wc.sp.Context()
		if !wc.sp.Sampled() && (status >= 400 || errmsg != "") {
			sctx = s.tracer.EmitErrorRoot(rootName, "serve", wc.c.enq, status, errmsg)
		}
		if werr == nil {
			wsp := s.tracer.StartSpan(sctx, "response.write", "serve")
			if wc.isDelta {
				r := &b.deltaResp
				r.ID = wc.c.id
				r.Session = wc.deltaRes.Session
				r.Status = wc.deltaRes.Status
				r.Rounds = wc.deltaRes.Rounds
				r.Width = wc.deltaRes.Width
				r.Size = wc.deltaRes.Size
				r.Fallback = wc.deltaRes.Fallback
				r.Err = wc.deltaRes.Err
				r.Trace = uint64(sctx.Trace)
				b.enc = wire.AppendDeltaResponse(b.enc[:0], r)
				wc.deltaRes = DeltaResult{}
			} else if wc.isSet {
				r := &b.setResp
				r.ID = wc.c.id
				r.Status = wc.setRes.Status
				r.Rounds = wc.setRes.Rounds
				r.Bound = wc.setRes.Bound
				r.Width = wc.setRes.Width
				r.Batches = wc.setRes.Batches
				r.Residual = wc.setRes.ResidualComms
				r.Units = wc.setRes.Units
				r.Strategy = strategyCode(wc.setRes.Strategy)
				r.Err = wc.setRes.Err
				r.Trace = uint64(sctx.Trace)
				b.enc = wire.AppendSetResponseV(b.enc[:0], r, wire.Version)
				wc.setRes = SetResult{}
			} else {
				r := &b.resp
				r.ID = wc.c.id
				r.Status = wc.res.Status
				r.Shard = wc.res.Shard
				r.Arrival = wc.res.Arrival
				r.Dispatched = wc.res.Dispatched
				r.Finished = wc.res.Finished
				r.LatencyRounds = wc.res.LatencyRounds
				r.Err = wc.res.Err
				r.Trace = uint64(sctx.Trace)
				b.enc = wire.AppendResponseV(b.enc[:0], r, wire.Version)
			}
			if _, err := b.bw.Write(b.enc); err != nil {
				werr = err
			}
			// Flush only when no more settled answers are queued: frames
			// for a pipelined burst coalesce into one syscall.
			if werr == nil && len(b.out) == 0 {
				if err := b.bw.Flush(); err != nil {
					werr = err
				}
			}
			wsp.End()
		}
		wc.sp.SetStatus(status)
		wc.sp.SetError(errmsg)
		wc.sp.End()
		b.free <- wc
	}
	if werr == nil {
		_ = b.bw.Flush()
	}
}

// isWireProtocolErr reports whether a read error is a protocol violation
// (counted) as opposed to a routine disconnect or shutdown poke (not).
func isWireProtocolErr(err error) bool {
	return errors.Is(err, wire.ErrBadFrame) ||
		errors.Is(err, wire.ErrFrameTooLarge) ||
		errors.Is(err, wire.ErrUnknownType) ||
		errors.Is(err, wire.ErrTruncated) ||
		errors.Is(err, wire.ErrBadMagic) ||
		errors.Is(err, wire.ErrVersion)
}
