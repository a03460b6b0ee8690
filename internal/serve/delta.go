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
// plus the delta-typed delivery (the counterpart of call.done). Wire slots
// embed one and reuse its comm slices across leases.
type serveDelta struct {
	session     uint64
	remove, add []comm.Comm
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
	resp := make(chan DeltaResult, 1)
	c := &call{proto: protoHTTP}
	c.arm(0, 0, deadline)
	c.sctx = sctx
	c.delta = &serveDelta{session: session, remove: remove, add: add,
		done: func(res DeltaResult) { resp <- res }}
	p.admit(c)
	return <-resp
}

// serveDelta answers one dequeued delta call inline on the worker, then
// publishes the shard's open sessions.
func (w *worker) serveDelta(c *call) {
	sd := c.delta
	out := DeltaResult{Session: sd.session, Status: http.StatusOK}
	if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		w.pool.met.deadline.Inc()
		out.Status, out.Err = http.StatusGatewayTimeout, fmt.Sprintf("serve: %v before apply", fault.ErrDeadline)
	} else {
		if w.pool.tracer != nil && c.sctx.Valid() {
			// Arm the shard simulator so its online.delta span joins the trace.
			w.sim.SetSpanContext(c.sctx)
			defer w.sim.SetSpanContext(obs.SpanContext{})
		}
		res, err := w.sim.ApplyDelta(sd.session, sd.remove, sd.add)
		w.sessions.Set(int64(w.sim.DeltaSessions()))
		out.Rounds, out.Width, out.Size, out.Fallback = res.Rounds, res.Width, res.Size, res.Fallback
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
	}
	w.settle(c, out.Status, out.Err, out.Rounds)
	sd.done(out)
}
