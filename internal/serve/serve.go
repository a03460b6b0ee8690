// Package serve turns the online dispatcher into a long-running scheduling
// service: a pool of CST shards (one online.Simulator per shard, each
// goroutine-confined to its dispatcher worker), an admission queue with
// bounded depth and explicit backpressure, work-conserving batch
// flushing, per-request deadlines reported through the fault package's
// error taxonomy, and a graceful drain that stops admission, flushes every
// queue and loses no accepted request.
//
// The simulator is synchronous and not safe for concurrent use, so the
// service never shares one across goroutines. Each worker owns its shard's
// simulator outright; the HTTP layer only ever touches the admission
// channels and the (atomic) counters. Scheduling work batches naturally:
// a free worker takes whatever is queued (up to BatchMax) without waiting
// for more and hands it to its simulator in one online.Serve call. Requests
// that arrive meanwhile form the next batch.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cst/internal/comm"
	"cst/internal/fault"
	"cst/internal/obs"
	"cst/internal/online"
)

// Defaults for Config fields left zero.
const (
	DefaultPEs        = 64
	DefaultQueueDepth = 64
	DefaultBatchMax   = 32
)

// ErrDraining rejects admissions after Drain has begun.
var ErrDraining = errors.New("serve: draining, not admitting")

// ErrQueueFull is the backpressure signal: every shard's admission queue
// is at capacity. Clients should back off and retry (HTTP 429).
var ErrQueueFull = errors.New("serve: all admission queues full")

// Config parameterizes a Pool.
type Config struct {
	// PEs is the number of processing elements per shard fabric.
	PEs int
	// Shards is the number of independent CST fabrics, each with its own
	// dispatcher worker and admission queue.
	Shards int
	// QueueDepth bounds each shard's admission queue; a request that finds
	// every queue full is rejected with ErrQueueFull.
	QueueDepth int
	// BatchMax caps the requests one flush takes from the queue.
	BatchMax int
	// BatchWait is accepted for compatibility and ignored: a worker never
	// holds a partial batch, it flushes whatever is queued as soon as it is
	// free.
	BatchWait time.Duration
	// DefaultDeadline bounds each request's wall-clock time in the service
	// unless the request carries its own; zero means no default deadline.
	DefaultDeadline time.Duration
	// Registry receives the cst_serve_* series; nil leaves the pool
	// uninstrumented.
	Registry *obs.Registry
	// Tracer receives request lifecycle events; nil no-ops.
	Tracer *obs.Tracer
	// Faults is a fault plan installed into every shard (each shard gets
	// its own injector — injectors are not safe across concurrent
	// engines). Nil runs fault-free.
	Faults []fault.Fault
	// EngineMetrics threads Registry/Tracer into the shard simulators so
	// the inner cst_online_*/cst_padr_* series and per-round trace events
	// accumulate too.
	EngineMetrics bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.PEs <= 0 {
		out.PEs = DefaultPEs
	}
	if out.Shards <= 0 {
		out.Shards = 1
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = DefaultQueueDepth
	}
	if out.BatchMax <= 0 {
		out.BatchMax = DefaultBatchMax
	}
	return out
}

// Result is the terminal answer for one scheduling request. Status carries
// the HTTP mapping the service uses: 200 scheduled, 400 bad endpoints,
// 429 queue full, 500 quarantined, 503 draining, 504 deadline exceeded.
type Result struct {
	Src   int `json:"src"`
	Dst   int `json:"dst"`
	Shard int `json:"shard"`
	// Arrival, Dispatched and Finished are simulated fabric rounds on the
	// shard that scheduled the request; LatencyRounds is Finished−Arrival.
	Arrival       int `json:"arrival"`
	Dispatched    int `json:"dispatched"`
	Finished      int `json:"finished"`
	LatencyRounds int `json:"latency_rounds"`
	// Status is the HTTP status the outcome maps to; Err is the error
	// string for non-200 outcomes.
	Status int    `json:"status"`
	Err    string `json:"error,omitempty"`
	// TraceID is the request's trace id when the request was sampled (set
	// by the transport, not by the pool).
	TraceID string `json:"trace_id,omitempty"`
}

// Protocol indices for per-protocol metric attribution. Every call is
// tagged with the protocol that admitted it.
const (
	protoHTTP = iota
	protoWire
	protoCount
)

// protoNames are the label values on the per-protocol cst_serve_* series.
var protoNames = [protoCount]string{protoHTTP: "http", protoWire: "wire"}

// call is one in-flight request: the admission payload plus its completion
// path. done receives the terminal Result, on the worker goroutine or,
// for an inline refusal, the admitting one; it must hand off (a buffered
// channel send to the blocked HTTP caller or to the wire connection's
// writer) rather than do work. Wire calls are embedded in per-connection
// slots and reused, which is what keeps that path allocation-free.
type call struct {
	src, dst int
	id       uint64 // wire request id, echoed in the response frame
	proto    uint8
	deadline time.Time
	enq      time.Time
	done     func(Result)
	// sctx is the request's span context (zero when unsampled); flushT is
	// when the flush that took the call started, the serve.dispatch span's
	// start. Both are plain values on the pooled call — the unsampled wire
	// path stays allocation-free.
	sctx   obs.SpanContext
	flushT time.Time
	// delta marks a session-delta call (see delta.go): it rides the same
	// admission channel but is served inline by the worker, never batched,
	// and its answer goes to delta.done instead of done.
	delta *serveDelta
}

// arm readies a call for admission. deadline <= 0 leaves the zero
// deadline (admit applies the pool default).
func (c *call) arm(src, dst int, deadline time.Duration) {
	c.src, c.dst = src, dst
	c.enq = time.Now()
	c.deadline = time.Time{}
	c.sctx = obs.SpanContext{}
	c.flushT = time.Time{}
	c.delta = nil
	if deadline > 0 {
		c.deadline = c.enq.Add(deadline)
	}
}

// poolMetrics holds the cst_serve_* handles; the zero value (nil registry)
// no-ops every operation.
type poolMetrics struct {
	requests    *obs.Counter
	scheduled   *obs.Counter
	rejected    *obs.Counter
	unavailable *obs.Counter
	badRequest  *obs.Counter
	deadline    *obs.Counter
	quarantined *obs.Counter
	flushes     *obs.Counter
	queueDepth  *obs.Gauge
	inflight    *obs.Gauge
	batchSize   *obs.Histogram
	latency     *obs.Summary
	proto       [protoCount]protoMetrics
}

// protoMetrics are the per-protocol views of the request series,
// registered as labeled twins (`cst_serve_requests_total{protocol="wire"}`)
// of the unlabeled aggregates, so dashboards can split the HTTP and wire
// paths without the aggregates moving.
type protoMetrics struct {
	requests  *obs.Counter
	scheduled *obs.Counter
	latency   *obs.Summary
}

func newProtoMetrics(r *obs.Registry, protocol string) protoMetrics {
	lbl := `{protocol="` + protocol + `"}`
	return protoMetrics{
		requests:  r.Counter("cst_serve_requests_total"+lbl, "scheduling requests received"),
		scheduled: r.Counter("cst_serve_scheduled_total"+lbl, "requests scheduled and completed"),
		latency:   r.Summary("cst_serve_latency"+lbl, "wall-clock request latency in seconds, exact quantiles over the last 4096 requests", 0),
	}
}

func newPoolMetrics(r *obs.Registry) poolMetrics {
	m := poolMetrics{
		requests:    r.Counter("cst_serve_requests_total", "scheduling requests received"),
		scheduled:   r.Counter("cst_serve_scheduled_total", "requests scheduled and completed"),
		rejected:    r.Counter("cst_serve_rejected_total", "admissions rejected with backpressure (429)"),
		unavailable: r.Counter("cst_serve_unavailable_total", "admissions refused while draining (503)"),
		badRequest:  r.Counter("cst_serve_bad_requests_total", "requests with invalid endpoints (400)"),
		deadline:    r.Counter("cst_serve_deadline_total", "requests expired before dispatch (504)"),
		quarantined: r.Counter("cst_serve_quarantined_total", "requests expelled by failed dispatches (500)"),
		flushes:     r.Counter("cst_serve_flushes_total", "batch flushes executed"),
		queueDepth:  r.Gauge("cst_serve_queue_depth", "requests sitting in admission queues"),
		inflight:    r.Gauge("cst_serve_inflight", "requests admitted and not yet answered"),
		batchSize:   r.Histogram("cst_serve_batch_size", "requests per flushed batch", obs.ExponentialBuckets(1, 2, 10)),
		latency:     r.Summary("cst_serve_latency", "wall-clock request latency in seconds, exact quantiles over the last 4096 requests", 0),
	}
	for i, name := range protoNames {
		m.proto[i] = newProtoMetrics(r, name)
	}
	return m
}

// Pool is the scheduling service: admission across a set of shard workers,
// each owning one online.Simulator.
type Pool struct {
	cfg     Config
	workers []*worker
	met     poolMetrics
	tracer  *obs.Tracer

	next      atomic.Uint64 // round-robin admission cursor
	admitted  atomic.Int64
	responded atomic.Int64

	// admission guards the draining flag against the channel close in
	// Drain: Schedule sends only under RLock with draining unset, so no
	// send can race the close.
	admission sync.RWMutex
	draining  bool

	startOnce sync.Once
	drainOnce sync.Once
	wg        sync.WaitGroup
	done      chan struct{} // closed when every worker has exited
	drainErr  error
}

// worker owns one shard: the simulator, the admission channel and the
// shard's open-sessions gauge.
type worker struct {
	id       int
	pool     *Pool
	sim      *online.Simulator
	ch       chan *call
	sessions *obs.Gauge

	// Steady-state scratch, confined to the worker goroutine: the batch
	// under collection, its pairs and their outcomes. Together with the
	// simulator's own scratch reuse these keep a worker's request cycle
	// allocation-free.
	batchScratch []*call
	comms        []comm.Comm
	out          []online.Outcome
}

// New builds a pool; workers do not run until Start.
func New(cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:    cfg,
		met:    newPoolMetrics(cfg.Registry),
		tracer: cfg.Tracer,
		done:   make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		var opts []online.Option
		if cfg.Faults != nil {
			// Each shard gets a private injector: the run counter is
			// advanced per engine run and cannot be shared across workers.
			opts = append(opts, online.WithFaults(fault.New(cfg.Faults)))
		}
		if cfg.EngineMetrics {
			opts = append(opts, online.WithRegistry(cfg.Registry), online.WithTracer(cfg.Tracer))
		}
		sim, err := online.New(cfg.PEs, opts...)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		p.workers = append(p.workers, &worker{
			id:   i,
			pool: p,
			sim:  sim,
			ch:   make(chan *call, cfg.QueueDepth),
			sessions: cfg.Registry.Gauge(fmt.Sprintf(`cst_serve_delta_sessions{shard="%d"}`, i),
				"delta sessions open on the shard"),
		})
	}
	return p, nil
}

// PEs returns the fabric size each shard schedules over.
func (p *Pool) PEs() int { return p.cfg.PEs }

// Start launches the shard workers. It is idempotent.
func (p *Pool) Start() {
	p.startOnce.Do(func() {
		for _, w := range p.workers {
			p.wg.Add(1)
			go func(w *worker) {
				defer p.wg.Done()
				w.run()
			}(w)
		}
	})
}

// Schedule admits one request and blocks until its terminal Result: the
// request was scheduled on some shard, expired, quarantined, or refused at
// admission (queue full, draining, bad endpoints — these return without
// blocking). Safe for arbitrary concurrent callers.
func (p *Pool) Schedule(src, dst int, deadline time.Duration) Result {
	return p.schedule(src, dst, deadline, obs.SpanContext{})
}

// schedule is Schedule carrying a span context, the blocking path the
// HTTP transport shares: when sctx is sampled the pool emits serve.queue
// and serve.dispatch child spans for the request's path through the
// admission queue and its shard's flush.
func (p *Pool) schedule(src, dst int, deadline time.Duration, sctx obs.SpanContext) Result {
	resp := make(chan Result, 1)
	c := &call{proto: protoHTTP, done: func(res Result) { resp <- res }}
	c.arm(src, dst, deadline)
	c.sctx = sctx
	p.admit(c)
	return <-resp
}

// admit validates and enqueues one armed call, pair or delta. A refusal is
// answered inline through the call's own delivery and never touches the
// admitted ledger: 400 for a pair's bad endpoints, 503 while draining, 429
// when no shard it may use has room. A pair tries every shard once,
// round-robin; a delta only shard session % shards, whose simulator holds
// the session's warm engine, so a full pinned queue is backpressure, not
// spillover. An admitted call is answered once, through settle, by its
// shard's worker. The wire path calls this directly with pooled calls;
// allocation-free on admission.
func (p *Pool) admit(c *call) {
	p.met.requests.Inc()
	p.met.proto[c.proto].requests.Inc()
	if c.delta == nil && (c.src < 0 || c.src >= p.cfg.PEs || c.dst < 0 || c.dst >= p.cfg.PEs || c.src == c.dst) {
		p.met.badRequest.Inc()
		c.refuse(http.StatusBadRequest, fmt.Sprintf("serve: bad endpoints (%d -> %d) on a %d-PE fabric", c.src, c.dst, p.cfg.PEs))
		return
	}
	if c.deadline.IsZero() && p.cfg.DefaultDeadline > 0 {
		c.deadline = c.enq.Add(p.cfg.DefaultDeadline)
	}
	// Refusals are delivered after the lock is released: delivery calls
	// the call's callback.
	p.admission.RLock()
	draining, queued := p.draining, false
	if !draining {
		shards := uint64(len(p.workers))
		var start, tries uint64 = 0, 1
		if c.delta != nil {
			start = c.delta.session
		} else {
			start, tries = p.next.Add(1), shards
		}
		for i := uint64(0); i < tries && !queued; i++ {
			select {
			case p.workers[(start+i)%shards].ch <- c:
				queued = true
			default:
			}
		}
	}
	if queued {
		// The worker may answer the call, and a wire slot be reused, from
		// here on: nothing below may touch c.
		p.admitted.Add(1)
		p.met.inflight.Add(1)
		p.met.queueDepth.Add(1)
	}
	p.admission.RUnlock()
	switch {
	case draining:
		p.met.unavailable.Inc()
		c.refuse(http.StatusServiceUnavailable, ErrDraining.Error())
	case !queued:
		p.met.rejected.Inc()
		c.refuse(http.StatusTooManyRequests, ErrQueueFull.Error())
	}
}

// refuse delivers the terminal answer to a call admit turned away.
func (c *call) refuse(status int, msg string) {
	if sd := c.delta; sd != nil {
		sd.done(DeltaResult{Session: sd.session, Status: status, Err: msg})
		return
	}
	c.done(Result{Src: c.src, Dst: c.dst, Shard: -1, Status: status, Err: msg})
}

// Drain gracefully shuts the pool down: admission stops (new requests get
// 503), every queued and in-flight request is flushed to a terminal
// answer, and the workers exit. It returns an error if ctx expires first
// or if accounting finds a lost request. Later calls wait for the first
// drain and return its result.
func (p *Pool) Drain(ctx context.Context) error {
	p.drainOnce.Do(func() {
		p.Start() // a never-started pool must still drain its queues
		p.admission.Lock()
		p.draining = true
		p.admission.Unlock()
		// No Schedule can be mid-send now: sends happen under RLock with
		// draining unset. Closing the channels releases the workers once
		// they finish draining the buffered requests.
		for _, w := range p.workers {
			close(w.ch)
		}
		go func() {
			p.wg.Wait()
			close(p.done)
		}()
	})
	select {
	case <-p.done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	if a, r := p.admitted.Load(), p.responded.Load(); a != r {
		p.drainErr = fmt.Errorf("serve: drain lost requests: admitted %d, responded %d", a, r)
	}
	return p.drainErr
}

// Stats is a point-in-time snapshot of the pool for /statusz and tests.
type Stats struct {
	PEs        int   `json:"pes"`
	Shards     int   `json:"shards"`
	Draining   bool  `json:"draining"`
	Admitted   int64 `json:"admitted"`
	Responded  int64 `json:"responded"`
	QueueDepth []int `json:"queue_depth"`
	// Latency exemplars over the retained summary window: the p99 value
	// with the trace id of the nearest sampled request, and the trace id of
	// the lifetime-slowest request. Empty when no retained request was
	// sampled — the "which request was that p99" link for /statusz.
	LatencyP99 float64 `json:"latency_p99_seconds,omitempty"`
	P99TraceID string  `json:"latency_p99_trace_id,omitempty"`
	MaxTraceID string  `json:"latency_max_trace_id,omitempty"`
	LatencyMax float64 `json:"latency_max_seconds,omitempty"`
}

// Snapshot reports the pool's live admission state.
func (p *Pool) Snapshot() Stats {
	p.admission.RLock()
	draining := p.draining
	p.admission.RUnlock()
	st := Stats{
		PEs:       p.cfg.PEs,
		Shards:    len(p.workers),
		Draining:  draining,
		Admitted:  p.admitted.Load(),
		Responded: p.responded.Load(),
	}
	for _, w := range p.workers {
		st.QueueDepth = append(st.QueueDepth, len(w.ch))
	}
	snap := p.met.latency.Snapshot()
	st.LatencyP99 = snap.Quantile(0.99)
	st.LatencyMax = snap.Max
	if id, _ := snap.Exemplar(0.99); id != 0 {
		st.P99TraceID = id.String()
	}
	if snap.MaxTrace != 0 {
		st.MaxTraceID = snap.MaxTrace.String()
	}
	return st
}

// run is the worker loop: take the next request, serve it inline if it is
// a delta, otherwise flush it with whatever else is queued; repeat until
// the admission channel is closed and drained.
func (w *worker) run() {
	for c := w.next(true); c != nil; c = w.next(true) {
		if c.delta != nil {
			w.serveDelta(c)
			continue
		}
		w.flush(w.collect(c))
	}
}

// next dequeues the worker's next call — waiting for one if wait is set —
// and takes it off the queue-depth gauge. It returns nil once the queue is
// closed and drained, or when nothing is queued and wait is unset.
func (w *worker) next(wait bool) *call {
	var c *call
	if wait {
		c = <-w.ch
	} else {
		select {
		case c = <-w.ch:
		default:
		}
	}
	if c != nil {
		w.pool.met.queueDepth.Add(-1)
	}
	return c
}

// collect gathers a batch starting from first: every request already
// queued, up to BatchMax, without waiting for more. The worker is
// work-conserving — it never idles while a request is queued — so a batch
// is whatever arrived while the previous flush ran. Deltas met on the way
// are served inline, never batched: the session's warm engine is only
// coherent when its deltas apply in admission order on this worker. The
// batch is built in the worker's reused scratch array, valid until the
// next collect. Expired requests are left to flush, which settles them 504.
func (w *worker) collect(first *call) []*call {
	batch := append(w.batchScratch[:0], first)
	for len(batch) < w.pool.cfg.BatchMax {
		c := w.next(false)
		if c == nil {
			break
		}
		if c.delta != nil {
			w.serveDelta(c)
			continue
		}
		batch = append(batch, c)
	}
	w.batchScratch = batch
	return batch
}

// flush answers every request in the batch: a request whose deadline has
// passed when the flush starts gets a 504, the rest go to the simulator in
// one Serve call and are answered by batch index once its last run is
// done.
func (w *worker) flush(batch []*call) {
	met := &w.pool.met
	met.flushes.Inc()
	met.batchSize.Observe(float64(len(batch)))
	now := time.Now()
	// Trace work is gated on the batch containing at least one sampled
	// call: an unsampled batch pays two pointer tests and nothing else, so
	// the wire pair path stays allocation-free with a tracer attached.
	sampled := 0
	var firstCtx obs.SpanContext
	if w.pool.tracer != nil {
		for _, c := range batch {
			if c.sctx.Valid() {
				if sampled == 0 {
					firstCtx = c.sctx
				}
				sampled++
			}
		}
	}
	if sampled > 0 {
		tr := w.pool.tracer
		tr.Emit(obs.Event{Type: "serve.flush", Engine: "serve", Round: w.sim.Now(), N: len(batch)})
		for _, c := range batch {
			if c.sctx.Valid() {
				tr.EmitSpan(obs.SpanRecord{
					Trace: c.sctx.Trace, Span: tr.NewSpanID(), Parent: c.sctx.Span,
					Name: "serve.queue", Engine: "serve",
					Start: c.enq, End: now,
				})
				c.flushT = now
			}
		}
		// Arm the shard simulator with the first sampled context so its
		// batch.* events and online.batch spans join this trace. The sim is
		// goroutine-confined to this worker, so no locking is needed.
		w.sim.SetSpanContext(firstCtx)
		defer w.sim.SetSpanContext(obs.SpanContext{})
	}
	// Compact the live calls to the front of the batch, in order, and
	// line their pairs up with them.
	live, comms := batch[:0], w.comms[:0]
	for _, c := range batch {
		if !c.deadline.IsZero() && now.After(c.deadline) {
			// The per-request deadline reuses the fault taxonomy: the
			// watchdog's ErrDeadline is what a stalled fabric would have
			// reported.
			met.deadline.Inc()
			w.answer(c, Result{Status: http.StatusGatewayTimeout,
				Err: fmt.Sprintf("serve: %v before dispatch", fault.ErrDeadline)})
			continue
		}
		live = append(live, c)
		comms = append(comms, comm.Comm{Src: c.src, Dst: c.dst})
	}
	arrival, out := w.sim.Serve(comms, w.out)
	w.comms, w.out = comms, out
	for i, c := range live {
		o := out[i]
		if o.Err != nil {
			met.quarantined.Inc()
			w.answer(c, Result{Status: http.StatusInternalServerError,
				Err: "serve: batch quarantined after exhausting dispatch attempts"})
			continue
		}
		met.scheduled.Inc()
		met.proto[c.proto].scheduled.Inc()
		w.answer(c, Result{
			Status:        http.StatusOK,
			Arrival:       arrival,
			Dispatched:    o.Dispatched,
			Finished:      o.Finished,
			LatencyRounds: o.Finished - arrival,
		})
	}
}

// answer settles one admitted pair call and delivers its Result.
func (w *worker) answer(c *call, res Result) {
	res.Src, res.Dst, res.Shard = c.src, c.dst, w.id
	w.settle(c, res.Status, res.Err, res.LatencyRounds)
	c.done(res)
}

// settle books the terminal answer of one admitted call, pair or delta,
// just before its result is delivered: the admitted/responded ledger, the
// in-flight gauge, the latency summaries and, when the call is sampled,
// its serve.dispatch or serve.delta span (n is the span's N: latency
// rounds or schedule rounds). Every admitted call is settled exactly once.
func (w *worker) settle(c *call, status int, errmsg string, n int) {
	p := w.pool
	p.responded.Add(1)
	p.met.inflight.Add(-1)
	lat := time.Since(c.enq).Seconds()
	var trace obs.TraceID
	if c.sctx.Valid() {
		trace = c.sctx.Trace
	}
	p.met.latency.ObserveTraced(lat, trace)
	p.met.proto[c.proto].latency.ObserveTraced(lat, trace)
	if p.tracer == nil || !c.sctx.Valid() {
		return
	}
	tr := p.tracer
	name, start := "serve.dispatch", c.flushT
	if c.delta != nil {
		name, start = "serve.delta", c.enq
	}
	tr.EmitSpan(obs.SpanRecord{
		Trace: c.sctx.Trace, Span: tr.NewSpanID(), Parent: c.sctx.Span,
		Name: name, Engine: "serve",
		Start: start, End: time.Now(),
		Status: status, N: n, Err: errmsg,
	})
	if c.delta == nil {
		tr.Emit(obs.Event{Type: "serve.done", Engine: "serve", Round: w.sim.Now(), N: status})
	}
}
