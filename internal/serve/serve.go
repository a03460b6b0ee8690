// Package serve turns the online dispatcher into a long-running scheduling
// service: a pool of CST shards (one online.Simulator per shard, each
// goroutine-confined to its dispatcher worker), an admission queue with
// bounded depth and explicit backpressure, deadline- and size-triggered
// batch flushing, per-request deadlines reported through the fault
// package's error taxonomy, and a graceful drain that stops admission,
// flushes every queue and loses no accepted request.
//
// The simulator is synchronous and not safe for concurrent use, so the
// service never shares one across goroutines. Each worker owns its shard's
// simulator outright; the HTTP layer only ever touches the admission
// channels and the (atomic) counters. Scheduling work batches naturally:
// a worker collects requests until the batch is full or the batch timer
// fires, submits the wave, and dispatches until its fabric is idle — the
// same quiesce loop pinned by the online package's drain tests.
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
	DefaultBatchWait  = 2 * time.Millisecond
)

// ErrDraining rejects admissions after Drain has begun.
var ErrDraining = errors.New("serve: draining, not admitting")

// ErrQueueFull is the backpressure signal: every shard's admission queue
// is at capacity. Clients should back off and retry (HTTP 429).
var ErrQueueFull = errors.New("serve: all admission queues full")

// errUnschedulable marks the defensive wedge guard: a flush wave where no
// deferred request could be submitted even though the fabric was idle.
var errUnschedulable = errors.New("serve: request endpoints permanently unavailable")

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
	// BatchMax flushes a batch once it holds this many requests.
	BatchMax int
	// BatchWait flushes a partial batch this long after its first request
	// arrived. Zero or negative flushes immediately (no batching delay
	// beyond what is already queued).
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
// path. The HTTP path blocks on resp (buffered so the worker's settle
// never blocks on a slow client); the wire path sets done instead, and
// settle invokes it on the worker goroutine — the callback must hand off
// (a channel send to the connection's writer) rather than do work. Wire
// calls are embedded in per-connection slots and reused, which is what
// keeps that path allocation-free.
type call struct {
	src, dst int
	id       uint64 // wire request id, echoed in the response frame
	proto    uint8
	deadline time.Time
	enq      time.Time
	resp     chan Result
	done     func(Result)
	// sctx is the request's span context (zero when unsampled); waveT is
	// when the call's submission wave started, the serve.dispatch span's
	// start. Both are plain values on the pooled call — the unsampled wire
	// path stays allocation-free.
	sctx  obs.SpanContext
	waveT time.Time
	// delta marks a session-delta call (see delta.go): it rides the same
	// admission channel but is served inline by the worker, never batched.
	delta *serveDelta
}

// arm readies a call for admission. deadline <= 0 leaves the zero
// deadline (admit applies the pool default).
func (c *call) arm(src, dst int, deadline time.Duration) {
	c.src, c.dst = src, dst
	c.enq = time.Now()
	c.deadline = time.Time{}
	c.sctx = obs.SpanContext{}
	c.waveT = time.Time{}
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
	latency     *obs.Histogram
	latencyQ    *obs.Summary
	proto       [protoCount]protoMetrics
}

// protoMetrics are the per-protocol views of the request series,
// registered as labeled twins (`cst_serve_requests_total{protocol="wire"}`)
// of the unlabeled aggregates, so dashboards can split the HTTP and wire
// paths without the aggregates moving.
type protoMetrics struct {
	requests  *obs.Counter
	scheduled *obs.Counter
	latency   *obs.Histogram
	latencyQ  *obs.Summary
}

func newProtoMetrics(r *obs.Registry, protocol string) protoMetrics {
	lbl := `{protocol="` + protocol + `"}`
	return protoMetrics{
		requests:  r.Counter("cst_serve_requests_total"+lbl, "scheduling requests received"),
		scheduled: r.Counter("cst_serve_scheduled_total"+lbl, "requests scheduled and completed"),
		latency:   r.Histogram("cst_serve_request_seconds"+lbl, "wall-clock request latency", obs.ExponentialBuckets(0.0001, 2, 16)),
		latencyQ:  r.Summary("cst_serve_latency"+lbl, "wall-clock request latency in seconds, exact quantiles over the last 4096 requests", 0),
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
		latency:     r.Histogram("cst_serve_request_seconds", "wall-clock request latency", obs.ExponentialBuckets(0.0001, 2, 16)),
		latencyQ:    r.Summary("cst_serve_latency", "wall-clock request latency in seconds, exact quantiles over the last 4096 requests", 0),
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
// waiter map keyed by (src, dst) — unique among in-queue requests because
// Submit rejects busy endpoints.
type worker struct {
	id   int
	pool *Pool
	sim  *online.Simulator
	ch   chan *call
	wait map[[2]int]*call

	// Steady-state scratch, confined to the worker goroutine: the batch
	// under collection, two alternating wave buffers for flush's deferral
	// loop, and the reused batch timer. Together with the simulator's own
	// scratch reuse these keep a worker's request cycle allocation-free.
	batchScratch []*call
	waveA, waveB []*call
	timer        *time.Timer
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
			wait: make(map[[2]int]*call),
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
// admission queue and its shard's dispatch wave.
func (p *Pool) schedule(src, dst int, deadline time.Duration, sctx obs.SpanContext) Result {
	c := &call{proto: protoHTTP, resp: make(chan Result, 1)}
	c.arm(src, dst, deadline)
	c.sctx = sctx
	if res, ok := p.admit(c); !ok {
		return res
	}
	return <-c.resp
}

// admit validates and enqueues one armed call. A false return means the
// request was refused inline and the Result is terminal (bad endpoints,
// draining, queue full) — such refusals never touch the admitted ledger.
// A true return means the call is in a shard's queue and its terminal
// Result will arrive through c.resp or c.done. The wire path calls this
// directly with pooled calls; allocation-free on admission.
func (p *Pool) admit(c *call) (Result, bool) {
	p.met.requests.Inc()
	p.met.proto[c.proto].requests.Inc()
	src, dst := c.src, c.dst
	if src < 0 || src >= p.cfg.PEs || dst < 0 || dst >= p.cfg.PEs || src == dst {
		p.met.badRequest.Inc()
		return Result{Src: src, Dst: dst, Shard: -1, Status: http.StatusBadRequest,
			Err: fmt.Sprintf("serve: bad endpoints (%d -> %d) on a %d-PE fabric", src, dst, p.cfg.PEs)}, false
	}
	if c.deadline.IsZero() && p.cfg.DefaultDeadline > 0 {
		c.deadline = c.enq.Add(p.cfg.DefaultDeadline)
	}

	p.admission.RLock()
	if p.draining {
		p.admission.RUnlock()
		p.met.unavailable.Inc()
		return Result{Src: src, Dst: dst, Shard: -1, Status: http.StatusServiceUnavailable, Err: ErrDraining.Error()}, false
	}
	// Round-robin with fallback: try every shard once, non-blocking. A
	// request only lands where there is room; if nowhere has room, that is
	// the backpressure signal.
	enqueued := false
	start := int(p.next.Add(1))
	for i := 0; i < len(p.workers) && !enqueued; i++ {
		w := p.workers[(start+i)%len(p.workers)]
		select {
		case w.ch <- c:
			enqueued = true
		default:
		}
	}
	if enqueued {
		p.admitted.Add(1)
		p.met.inflight.Add(1)
		p.met.queueDepth.Add(1)
	}
	p.admission.RUnlock()
	if !enqueued {
		p.met.rejected.Inc()
		return Result{Src: src, Dst: dst, Shard: -1, Status: http.StatusTooManyRequests, Err: ErrQueueFull.Error()}, false
	}
	return Result{}, true
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
	snap := p.met.latencyQ.Snapshot()
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

// run is the worker loop: collect a batch, flush it, repeat until the
// admission channel is closed and drained.
func (w *worker) run() {
	for {
		c, ok := <-w.ch
		if !ok {
			return
		}
		if c.delta != nil {
			w.serveDelta(c)
			continue
		}
		batch := w.collect(c)
		if len(batch) > 0 {
			w.flush(batch)
		}
	}
}

// collect gathers a batch starting from first: up to BatchMax requests,
// waiting at most BatchWait after the first arrival for stragglers. The
// wait is deadline-aware: the timer is armed to the earlier of the batch
// window and the soonest per-request deadline in the batch, and expired
// requests are settled 504 on the spot instead of riding out the window —
// so an expired request in a quiet queue never waits for the next
// size/deadline trigger. The batch is built in the worker's reused
// scratch array (valid until the next collect) and the batch timer is
// pooled across batches. May return an empty batch when every collected
// request expired; run skips the flush entirely in that case.
func (w *worker) collect(first *call) []*call {
	batch := append(w.batchScratch[:0], first)
	defer func() { w.batchScratch = batch }()
	if w.pool.cfg.BatchWait <= 0 {
		for len(batch) < w.pool.cfg.BatchMax {
			select {
			case c, ok := <-w.ch:
				if !ok {
					return batch
				}
				if c.delta != nil {
					w.serveDelta(c)
					continue
				}
				batch = append(batch, c)
			default:
				return batch
			}
		}
		return batch
	}
	flushAt := time.Now().Add(w.pool.cfg.BatchWait)
	for {
		batch = w.expire(batch)
		if len(batch) >= w.pool.cfg.BatchMax || (len(batch) == 0 && len(w.ch) == 0) {
			return batch
		}
		// Wake at the sooner of the batch window's end and the earliest
		// live deadline in the batch.
		wake := flushAt
		for _, c := range batch {
			if !c.deadline.IsZero() && c.deadline.Before(wake) {
				wake = c.deadline
			}
		}
		wait := time.Until(wake)
		if wait <= 0 && wake.Equal(flushAt) {
			return batch
		}
		if w.timer == nil {
			w.timer = time.NewTimer(wait)
		} else {
			// Reused timer re-arm: Stop, drain a stale fire if one slipped
			// in, then Reset. Worst case a stale tick flushes one batch
			// early — a latency blip, never a correctness issue.
			if !w.timer.Stop() {
				select {
				case <-w.timer.C:
				default:
				}
			}
			w.timer.Reset(wait)
		}
		select {
		case c, ok := <-w.ch:
			if !ok {
				return batch
			}
			if c.delta != nil {
				// Deltas are served inline, never batched: the session's
				// warm engine is only coherent when its deltas apply in
				// admission order on this worker.
				w.serveDelta(c)
				continue
			}
			batch = append(batch, c)
		case <-w.timer.C:
			if !time.Now().Before(flushAt) {
				return batch
			}
			// A request deadline fired before the window closed: loop so
			// the sweep settles it and the timer re-arms for the rest.
		}
	}
}

// expire settles batch members whose deadline has already passed and
// compacts the batch in place. Settling here — not only at flush — is
// what bounds a queued request's 504 latency by its own deadline rather
// than by the batch window.
func (w *worker) expire(batch []*call) []*call {
	now := time.Now()
	kept := batch[:0]
	for _, c := range batch {
		if !c.deadline.IsZero() && !now.Before(c.deadline) {
			w.pool.met.deadline.Inc()
			w.pool.met.queueDepth.Add(-1)
			w.settle(c, Result{Status: http.StatusGatewayTimeout,
				Err: fmt.Sprintf("serve: %v before dispatch", fault.ErrDeadline)})
			continue
		}
		kept = append(kept, c)
	}
	return kept
}

// flush answers every request in the batch. It submits requests in waves
// (requests that conflict on endpoints within the batch are deferred to
// the next wave), dispatches the fabric to idle between waves, and maps
// completion and quarantine records back to their waiters. The fabric is
// idle with no reservations on entry and on exit, so waves always make
// progress: after a dispatch-to-idle the first deferred request cannot be
// refused for a busy endpoint.
func (w *worker) flush(batch []*call) {
	met := &w.pool.met
	met.flushes.Inc()
	met.batchSize.Observe(float64(len(batch)))
	met.queueDepth.Add(-int64(len(batch)))
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
		flushT := time.Now()
		for _, c := range batch {
			if c.sctx.Valid() {
				tr.EmitSpan(obs.SpanRecord{
					Trace: c.sctx.Trace, Span: tr.NewSpanID(), Parent: c.sctx.Span,
					Name: "serve.queue", Engine: "serve",
					Start: c.enq, End: flushT,
				})
			}
		}
		// Arm the shard simulator with the first sampled context so its
		// batch.* events and online.batch span join this trace. The sim is
		// goroutine-confined to this worker, so no locking is needed.
		w.sim.SetSpanContext(firstCtx)
		defer w.sim.SetSpanContext(obs.SpanContext{})
	}
	pending := batch
	// Waves alternate between two reused buffers: wave k builds its
	// deferral list in one while iterating the other (wave k−1's list, or
	// the batch itself on the first pass), so the loop never allocates.
	cur, alt := w.waveA, w.waveB
	for len(pending) > 0 {
		deferred := cur[:0]
		submitted := 0
		now := time.Now()
		for _, c := range pending {
			if !c.deadline.IsZero() && now.After(c.deadline) {
				// The per-request deadline reuses the fault taxonomy: the
				// watchdog's ErrDeadline is what a stalled fabric would
				// have reported.
				met.deadline.Inc()
				w.settle(c, Result{Status: http.StatusGatewayTimeout,
					Err: fmt.Sprintf("serve: %v before dispatch", fault.ErrDeadline)})
				continue
			}
			// Endpoints validated at admission, queue idle between waves:
			// the only possible refusal is an endpoint conflict within this
			// batch. The Busy pre-check catches it without paying Submit's
			// allocated error; the Submit error branch stays as a
			// defensive backstop.
			if w.sim.Busy(c.src, c.dst) {
				deferred = append(deferred, c)
				continue
			}
			if err := w.sim.Submit(comm.Comm{Src: c.src, Dst: c.dst}); err != nil {
				deferred = append(deferred, c)
				continue
			}
			if c.sctx.Valid() {
				c.waveT = now
			}
			w.wait[[2]int{c.src, c.dst}] = c
			submitted++
		}
		cur, alt = alt, deferred
		if submitted > 0 {
			w.quiesce()
			w.settleRecords()
		} else if len(deferred) > 0 {
			// Defensive wedge guard: the fabric is idle yet nothing could
			// be submitted — endpoint reservations leaked (cannot happen
			// per the online drain invariants). Fail the stragglers
			// rather than spin.
			for _, c := range deferred {
				w.settle(c, Result{Status: http.StatusInternalServerError, Err: errUnschedulable.Error()})
			}
			return
		}
		pending = deferred
	}
	// Keep the (possibly regrown) wave buffers and retire the simulator's
	// consumed completion/quarantine records so a long-lived shard's
	// memory stays bounded.
	w.waveA, w.waveB = cur, alt
	w.sim.Recycle()
}

// quiesce dispatches until the shard's queue is empty, tolerating
// quarantine errors (the expelled requests surface via TakeQuarantined).
// The progress guard breaks the loop if a dispatch error ever leaves the
// queue unshrunk, so a defect below cannot wedge the worker.
func (w *worker) quiesce() {
	for w.sim.QueueLen() > 0 {
		before := w.sim.QueueLen()
		if _, err := w.sim.Dispatch(); err != nil && w.sim.QueueLen() >= before {
			return
		}
	}
}

// settleRecords maps the simulator's new completion and quarantine records
// back to their waiting calls.
func (w *worker) settleRecords() {
	met := &w.pool.met
	for _, rec := range w.sim.TakeCompleted() {
		key := [2]int{rec.Comm.Src, rec.Comm.Dst}
		c, ok := w.wait[key]
		if !ok {
			continue // defensive: record without a waiter
		}
		delete(w.wait, key)
		met.scheduled.Inc()
		met.proto[c.proto].scheduled.Inc()
		w.settle(c, Result{
			Status:        http.StatusOK,
			Arrival:       rec.Arrival,
			Dispatched:    rec.Dispatched,
			Finished:      rec.Finished,
			LatencyRounds: rec.Finished - rec.Arrival,
		})
	}
	for _, rec := range w.sim.TakeQuarantined() {
		key := [2]int{rec.Comm.Src, rec.Comm.Dst}
		c, ok := w.wait[key]
		if !ok {
			continue
		}
		delete(w.wait, key)
		met.quarantined.Inc()
		w.settle(c, Result{Status: http.StatusInternalServerError,
			Err: "serve: batch quarantined after exhausting dispatch attempts"})
	}
}

// settle delivers the terminal result for one admitted call. Every
// admitted call is settled exactly once. HTTP calls get a send on their
// buffered response channel (a departed client cannot block the worker);
// wire calls get their done callback, which hands the pooled call to its
// connection's writer goroutine.
func (w *worker) settle(c *call, res Result) {
	res.Src, res.Dst, res.Shard = c.src, c.dst, w.id
	w.pool.responded.Add(1)
	w.pool.met.inflight.Add(-1)
	lat := time.Since(c.enq)
	var trace obs.TraceID
	if c.sctx.Valid() {
		trace = c.sctx.Trace
	}
	w.pool.met.latency.ObserveDuration(lat)
	w.pool.met.latencyQ.ObserveTraced(lat.Seconds(), trace)
	pm := &w.pool.met.proto[c.proto]
	pm.latency.ObserveDuration(lat)
	pm.latencyQ.ObserveTraced(lat.Seconds(), trace)
	if w.pool.tracer != nil && c.sctx.Valid() {
		tr := w.pool.tracer
		start := c.waveT
		if start.IsZero() {
			start = c.enq // settled before ever reaching a wave (deadline miss)
		}
		tr.EmitSpan(obs.SpanRecord{
			Trace: c.sctx.Trace, Span: tr.NewSpanID(), Parent: c.sctx.Span,
			Name: "serve.dispatch", Engine: "serve",
			Start: start, End: time.Now(),
			Status: res.Status, N: res.LatencyRounds, Err: res.Err,
		})
		tr.Emit(obs.Event{Type: "serve.done", Engine: "serve",
			Round: w.sim.Now(), N: res.Status})
	}
	if c.done != nil {
		c.done(res)
		return
	}
	c.resp <- res
}
