package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cst/internal/comm"
	"cst/internal/obs"
)

// ScheduleRequest is the POST /schedule payload.
type ScheduleRequest struct {
	// Src and Dst are PE indices on the shard fabric.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// DeadlineMS optionally bounds the request's wall-clock time in the
	// service, overriding the pool's default. Zero uses the default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ScheduleSetRequest is the POST /schedule-set payload: a whole
// communication set to plan through the hybrid pipeline. The set need not
// be well nested — crossing and left-oriented pairs are what the hybrid
// planner exists for.
type ScheduleSetRequest struct {
	// N is the PE count (a power of two).
	N int `json:"n"`
	// Comms are the communications to schedule together.
	Comms []SetComm `json:"comms"`
}

// ScheduleDeltaRequest is the POST /schedule-delta payload: a mutation of
// a long-lived session's communication set. Removes apply before adds;
// the session opens on its first delta and stays pinned to one shard.
type ScheduleDeltaRequest struct {
	// Session identifies the delta session; session % shards picks the
	// owning shard worker.
	Session uint64 `json:"session"`
	// Remove lists pairs to drop from the session set; each must be
	// present. Add lists right-oriented pairs to insert.
	Remove []SetComm `json:"remove,omitempty"`
	Add    []SetComm `json:"add,omitempty"`
	// DeadlineMS optionally bounds the request's wall-clock time in the
	// service, overriding the pool's default. Zero uses the default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Handler mounts the scheduling API next to the observability surface on
// one mux: POST /schedule, POST /schedule-set, POST /schedule-delta and
// GET /statusz from this package, plus /metrics, /healthz, /trace,
// /trace/flight and /debug/pprof from obs.Handler — one listener serves
// both traffic and introspection. pl may be nil, in which case
// /schedule-set answers 501.
//
// Both POST endpoints participate in span tracing: an X-CST-Trace request
// header continues the caller's trace, head sampling opens a fresh one, and
// errored requests are recorded retroactively even when unsampled. Sampled
// responses echo X-CST-Trace and carry trace_id in the body.
func Handler(p *Pool, pl *Planner, reg *obs.Registry, tr *obs.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(reg, tr))
	mux.HandleFunc("/schedule", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		start := time.Now()
		remote, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		sp := tr.StartServer("http.schedule", "serve", remote)
		var req ScheduleRequest
		if status, msg := decodeBody(w, r, &req); status != 0 {
			finishHTTPError(w, tr, &sp, "http.schedule", start, status, msg)
			return
		}
		res := p.schedule(req.Src, req.Dst, time.Duration(req.DeadlineMS)*time.Millisecond, sp.Context())
		sctx := sp.Context()
		if !sp.Sampled() && (res.Status >= 400 || res.Err != "") {
			sctx = tr.EmitErrorRoot("http.schedule", "serve", start, res.Status, res.Err)
		}
		writeTraced(w, tr, sctx, res.Status, &res, &res.TraceID)
		sp.SetStatus(res.Status)
		sp.SetError(res.Err)
		sp.End()
	})
	mux.HandleFunc("/schedule-set", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if pl == nil {
			http.Error(w, "set planning not enabled", http.StatusNotImplemented)
			return
		}
		start := time.Now()
		remote, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		sp := tr.StartServer("http.plan", "serve", remote)
		var req ScheduleSetRequest
		if status, msg := decodeBody(w, r, &req); status != 0 {
			finishHTTPError(w, tr, &sp, "http.plan", start, status, msg)
			return
		}
		s := &comm.Set{N: req.N, Comms: make([]comm.Comm, len(req.Comms))}
		for i, c := range req.Comms {
			s.Comms[i] = comm.Comm{Src: c.Src, Dst: c.Dst}
		}
		res := pl.plan(s, protoHTTP, true, sp.Context())
		sctx := sp.Context()
		if !sp.Sampled() && (res.Status >= 400 || res.Err != "") {
			sctx = tr.EmitErrorRoot("http.plan", "serve", start, res.Status, res.Err)
		}
		writeTraced(w, tr, sctx, res.Status, &res, &res.TraceID)
		sp.SetStatus(res.Status)
		sp.SetN(s.Len())
		sp.SetError(res.Err)
		sp.End()
	})
	mux.HandleFunc("/schedule-delta", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		start := time.Now()
		remote, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		sp := tr.StartServer("http.delta", "serve", remote)
		var req ScheduleDeltaRequest
		if status, msg := decodeBody(w, r, &req); status != 0 {
			finishHTTPError(w, tr, &sp, "http.delta", start, status, msg)
			return
		}
		remove := make([]comm.Comm, len(req.Remove))
		for i, c := range req.Remove {
			remove[i] = comm.Comm{Src: c.Src, Dst: c.Dst}
		}
		add := make([]comm.Comm, len(req.Add))
		for i, c := range req.Add {
			add[i] = comm.Comm{Src: c.Src, Dst: c.Dst}
		}
		res := p.scheduleDelta(req.Session, remove, add,
			time.Duration(req.DeadlineMS)*time.Millisecond, sp.Context())
		sctx := sp.Context()
		if !sp.Sampled() && (res.Status >= 400 || res.Err != "") {
			sctx = tr.EmitErrorRoot("http.delta", "serve", start, res.Status, res.Err)
		}
		writeTraced(w, tr, sctx, res.Status, &res, &res.TraceID)
		sp.SetStatus(res.Status)
		sp.SetN(res.Rounds)
		sp.SetError(res.Err)
		sp.End()
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(p.Snapshot())
	})
	return mux
}

// maxBodyBytes caps a /schedule* request body, so an oversized payload is
// refused before it is held in memory: room for a delta's remove and add
// lists of MaxPlanComms comms each, at 64 bytes of JSON per comm.
const maxBodyBytes = 2 * MaxPlanComms * 64

// decodeBody decodes one JSON request body read through a
// http.MaxBytesReader. It returns status 0 on success, 413 for a body over
// maxBodyBytes and 400 for any other decode failure, with the message.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, string) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return 0, ""
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", maxBodyBytes)
	}
	return http.StatusBadRequest, "bad JSON: " + err.Error()
}

// writeTraced writes one JSON response body, stamping the trace id into the
// body (via traceID, a pointer into body) and the X-CST-Trace response
// header when the request is traced, and recording the encode as a
// "response.write" child span when sampled.
func writeTraced(w http.ResponseWriter, tr *obs.Tracer, sctx obs.SpanContext, status int, body any, traceID *string) {
	if sctx.Valid() {
		*traceID = sctx.Trace.String()
		w.Header().Set(obs.TraceHeader, obs.FormatTraceHeader(sctx))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	wsp := tr.StartSpan(sctx, "response.write", "serve")
	_ = json.NewEncoder(w).Encode(body)
	wsp.End()
}

// finishHTTPError answers a pre-admission failure (malformed payload),
// closing the root span — or retroactively recording one — so the error is
// attributable at any sample rate.
func finishHTTPError(w http.ResponseWriter, tr *obs.Tracer, sp *obs.Span, name string, start time.Time, status int, msg string) {
	sctx := sp.Context()
	if !sp.Sampled() {
		sctx = tr.EmitErrorRoot(name, "serve", start, status, msg)
	}
	if sctx.Valid() {
		w.Header().Set(obs.TraceHeader, obs.FormatTraceHeader(sctx))
	}
	http.Error(w, msg, status)
	sp.SetStatus(status)
	sp.SetError(msg)
	sp.End()
}
