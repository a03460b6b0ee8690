package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"cst/internal/comm"
	"cst/internal/fault"
	"cst/internal/obs"
	"cst/internal/online"
)

// Delta serving: session-scoped incremental scheduling.
//
// A delta session lives on exactly one shard — admission pins it by
// session % shards — so every delta against a session reaches the same
// worker and therefore the same online.Simulator, which owns the
// session's warm engine (see online/delta.go). Deltas ride the normal
// admission channel for ordering and backpressure but are never batched
// with pair requests: the worker serves one inline the moment it is
// dequeued, whether that happens between batches or mid-collection.

// DeltaResult is the terminal answer for one delta request. Status uses
// the pool's HTTP mapping: 200 applied, 400 invalid delta, 429 backpressure
// or session table full, 500 fallback failed, 503 draining, 504 deadline.
type DeltaResult struct {
	Session uint64 `json:"session"`
	// Rounds and Width describe the re-scheduled session set (meaningful
	// only for status 200); Size is the set's size after the delta.
	Rounds int `json:"rounds"`
	Width  int `json:"width"`
	Size   int `json:"size"`
	// Fallback marks a success served by a from-scratch run instead of an
	// incremental apply.
	Fallback bool   `json:"fallback,omitempty"`
	Status   int    `json:"status"`
	Err      string `json:"error,omitempty"`
	TraceID  string `json:"trace_id,omitempty"`
}

// serveDelta is the delta payload riding on a call: the mutation lists
// plus the delta-typed completion path (mirroring call.resp/call.done).
// Wire slots embed one and reuse its comm slices across leases.
type serveDelta struct {
	session     uint64
	remove, add []comm.Comm
	resp        chan DeltaResult
	done        func(DeltaResult)
}

// ScheduleDelta admits one delta against session and blocks until its
// terminal DeltaResult. Safe for arbitrary concurrent callers.
func (p *Pool) ScheduleDelta(session uint64, remove, add []comm.Comm, deadline time.Duration) DeltaResult {
	return p.scheduleDelta(session, remove, add, deadline, obs.SpanContext{})
}

// scheduleDelta is ScheduleDelta carrying a span context, like schedule.
func (p *Pool) scheduleDelta(session uint64, remove, add []comm.Comm,
	deadline time.Duration, sctx obs.SpanContext) DeltaResult {
	sd := &serveDelta{session: session, remove: remove, add: add,
		resp: make(chan DeltaResult, 1)}
	c := &call{proto: protoHTTP}
	c.arm(0, 0, deadline)
	c.delta = sd
	c.sctx = sctx
	if res, ok := p.admitDelta(c); !ok {
		return res
	}
	return <-sd.resp
}

// admitDelta enqueues one armed delta call onto its session's pinned
// shard. A false return is an inline terminal refusal (draining, queue
// full) that never touched the admitted ledger.
func (p *Pool) admitDelta(c *call) (DeltaResult, bool) {
	p.met.requests.Inc()
	p.met.proto[c.proto].requests.Inc()
	sd := c.delta
	if c.deadline.IsZero() && p.cfg.DefaultDeadline > 0 {
		c.deadline = c.enq.Add(p.cfg.DefaultDeadline)
	}
	p.admission.RLock()
	if p.draining {
		p.admission.RUnlock()
		p.met.unavailable.Inc()
		return DeltaResult{Session: sd.session, Status: http.StatusServiceUnavailable,
			Err: ErrDraining.Error()}, false
	}
	// No round-robin fallback: the session's warm engine lives on exactly
	// this worker, so a full pinned queue is backpressure, not spillover.
	w := p.workers[int(sd.session%uint64(len(p.workers)))]
	enqueued := false
	select {
	case w.ch <- c:
		enqueued = true
	default:
	}
	if enqueued {
		p.admitted.Add(1)
		p.met.inflight.Add(1)
		p.met.queueDepth.Add(1)
	}
	p.admission.RUnlock()
	if !enqueued {
		p.met.rejected.Inc()
		return DeltaResult{Session: sd.session, Status: http.StatusTooManyRequests,
			Err: ErrQueueFull.Error()}, false
	}
	return DeltaResult{}, true
}

// serveDelta answers one dequeued delta call inline on the worker.
func (w *worker) serveDelta(c *call) {
	sd := c.delta
	if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		w.pool.met.deadline.Inc()
		w.settleDelta(c, DeltaResult{Session: sd.session, Status: http.StatusGatewayTimeout,
			Err: fmt.Sprintf("serve: %v before apply", fault.ErrDeadline)})
		return
	}
	if w.pool.tracer != nil && c.sctx.Valid() {
		// Arm the shard simulator so its online.delta span joins the trace.
		w.sim.SetSpanContext(c.sctx)
		defer w.sim.SetSpanContext(obs.SpanContext{})
	}
	res, err := w.sim.ApplyDelta(sd.session, sd.remove, sd.add)
	out := DeltaResult{Session: sd.session, Rounds: res.Rounds, Width: res.Width,
		Size: res.Size, Fallback: res.Fallback, Status: http.StatusOK}
	if err != nil {
		switch {
		case errors.Is(err, online.ErrDeltaRejected):
			out.Status = http.StatusBadRequest
		case errors.Is(err, online.ErrSessionsFull):
			out.Status = http.StatusTooManyRequests
		default:
			out.Status = http.StatusInternalServerError
		}
		out.Rounds, out.Width = 0, 0
		out.Err = err.Error()
	}
	w.settleDelta(c, out)
}

// settleDelta delivers the terminal result for one admitted delta call,
// with the same ledger and latency accounting as settle. Deltas never
// reach flush, so the queue-depth decrement happens here.
func (w *worker) settleDelta(c *call, res DeltaResult) {
	sd := c.delta
	w.pool.responded.Add(1)
	w.pool.met.inflight.Add(-1)
	w.pool.met.queueDepth.Add(-1)
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
		tr.EmitSpan(obs.SpanRecord{
			Trace: c.sctx.Trace, Span: tr.NewSpanID(), Parent: c.sctx.Span,
			Name: "serve.delta", Engine: "serve",
			Start: c.enq, End: time.Now(),
			Status: res.Status, N: res.Rounds, Err: res.Err,
		})
	}
	if sd.done != nil {
		sd.done(res)
		return
	}
	sd.resp <- res
}
