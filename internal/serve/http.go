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
// The POST endpoints participate in span tracing (see post): an
// X-CST-Trace request header continues the caller's trace, head sampling
// opens a fresh one, and errored requests are recorded retroactively even
// when unsampled. Sampled responses echo X-CST-Trace and carry trace_id in
// the body.
func Handler(p *Pool, pl *Planner, reg *obs.Registry, tr *obs.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(reg, tr))
	mux.Handle("/schedule", post(tr, "http.schedule", func(req *ScheduleRequest, sctx obs.SpanContext) reply {
		res := p.schedule(req.Src, req.Dst, time.Duration(req.DeadlineMS)*time.Millisecond, sctx)
		return reply{&res, &res.TraceID, res.Status, res.Err, 0}
	}))
	mux.Handle("/schedule-set", post(tr, "http.plan", func(req *ScheduleSetRequest, sctx obs.SpanContext) reply {
		res := pl.plan(&comm.Set{N: req.N, Comms: comms(req.Comms)}, protoHTTP, true, sctx)
		return reply{&res, &res.TraceID, res.Status, res.Err, len(req.Comms)}
	}))
	mux.Handle("/schedule-delta", post(tr, "http.delta", func(req *ScheduleDeltaRequest, sctx obs.SpanContext) reply {
		res := p.scheduleDelta(req.Session, comms(req.Remove), comms(req.Add),
			time.Duration(req.DeadlineMS)*time.Millisecond, sctx)
		return reply{&res, &res.TraceID, res.Status, res.Err, res.Rounds}
	}))
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(p.Snapshot())
	})
	return mux
}

// comms converts request pairs to communications.
func comms(pairs []SetComm) []comm.Comm {
	out := make([]comm.Comm, len(pairs))
	for i, c := range pairs {
		out[i] = comm.Comm{Src: c.Src, Dst: c.Dst}
	}
	return out
}

// reply is one /schedule* answer: the JSON body and its trace_id field,
// and the status, error and N its root span records.
type reply struct {
	body    any
	traceID *string
	status  int
	err     string
	n       int
}

// post builds the handler of one traced JSON POST endpoint. It refuses
// other methods with 405, continues an X-CST-Trace context or
// head-samples a fresh root span named root, decodes the body into a Req
// and answers it through serve under the root's context. An error answer
// that was not sampled gets a retroactive root, so its trace id reaches
// the client at any sample rate; a traced answer echoes X-CST-Trace, and
// its body carries trace_id and is written under a response.write span.
func post[Req any](tr *obs.Tracer, root string, serve func(*Req, obs.SpanContext) reply) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		start := time.Now()
		remote, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		sp := tr.StartServer(root, "serve", remote)
		var req Req
		var rep reply
		if status, msg := decodeBody(w, r, &req); status != 0 {
			rep = reply{status: status, err: msg}
		} else {
			rep = serve(&req, sp.Context())
		}
		sctx := sp.Context()
		if !sp.Sampled() && (rep.status >= 400 || rep.err != "") {
			sctx = tr.EmitErrorRoot(root, "serve", start, rep.status, rep.err)
		}
		if sctx.Valid() {
			w.Header().Set(obs.TraceHeader, obs.FormatTraceHeader(sctx))
		}
		if rep.body == nil { // the body did not decode: a plain-text error
			http.Error(w, rep.err, rep.status)
		} else {
			if sctx.Valid() {
				*rep.traceID = sctx.Trace.String()
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rep.status)
			wsp := tr.StartSpan(sctx, "response.write", "serve")
			_ = json.NewEncoder(w).Encode(rep.body)
			wsp.End()
		}
		sp.SetStatus(rep.status)
		sp.SetN(rep.n)
		sp.SetError(rep.err)
		sp.End()
	}
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
