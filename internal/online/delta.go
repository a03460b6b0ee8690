package online

import (
	"errors"
	"fmt"
	"time"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/obs"
	"cst/internal/padr"
	"cst/internal/xbar"
)

// Delta sessions: long-lived communication sets scheduled incrementally.
//
// A session owns a warm padr engine over PRIVATE crossbars — never the
// simulator's physical fabric switches, which belong to the batch
// dispatcher and may hold in-flight circuits. Each ApplyDelta mutates the
// session's set (removes first, then adds) and re-schedules it, taking
// the incremental Engine.ApplyRounds path whenever the engine still
// trusts its Phase 1 snapshot, and falling back to a from-scratch
// Reset+RunRounds otherwise (first request of a session, or a faulted
// apply that voided the snapshot). An invalid delta (padr.ErrDelta) is
// rejected with the session untouched — no fallback, because the request
// itself is wrong, not the engine state.
//
// Sessions are confined to the simulator's goroutine like everything else
// here; the serving layer pins a session id to one shard worker
// (session % shards) so all of its deltas arrive on the same simulator.

// DefaultMaxDeltaSessions caps how many concurrent delta sessions one
// simulator retains; each session holds a full engine + crossbar arena.
const DefaultMaxDeltaSessions = 256

// ErrSessionsFull is returned when opening one more delta session would
// exceed the session cap. Maps to 429 on the serving surface.
var ErrSessionsFull = errors.New("online: delta session table full")

// ErrDeltaRejected marks a delta invalid against its session (it is
// padr.ErrDelta, re-exported so callers need not import padr). Maps to
// 400 on the serving surface; the session is left exactly as it was.
var ErrDeltaRejected = padr.ErrDelta

// DeltaResult reports one applied delta.
type DeltaResult struct {
	Session uint64
	// Rounds is the schedule length of the re-scheduled set; Width its
	// congestion bound (equal under the default greedy selection,
	// Theorem 5 of the paper).
	Rounds, Width int
	// Size is the session's set size after the delta.
	Size int
	// Fallback marks a success served by a from-scratch run instead of an
	// incremental apply (session open, or recovery from a faulted apply).
	Fallback bool
}

// deltaSession is one warm session: its engine, its private crossbars and
// the canonical committed communication set.
type deltaSession struct {
	eng   *padr.Engine
	xbars []*xbar.Switch
	comms []comm.Comm
	set   *comm.Set // reused Reset scratch aliasing comms
}

type deltaMetrics struct {
	requests  *obs.Counter
	applied   *obs.Counter
	fallbacks *obs.Counter
	rejected  *obs.Counter
	rounds    *obs.Histogram
	applyTime *obs.Histogram
}

func newDeltaMetrics(r *obs.Registry) deltaMetrics {
	return deltaMetrics{
		requests:  r.Counter("cst_delta_requests_total", "delta scheduling requests received"),
		applied:   r.Counter("cst_delta_applied_total", "deltas served by the incremental apply path"),
		fallbacks: r.Counter("cst_delta_fallbacks_total", "deltas served by a from-scratch fallback run"),
		rejected:  r.Counter("cst_delta_rejected_total", "deltas rejected as invalid against their session"),
		rounds:    r.Histogram("cst_delta_rounds", "schedule rounds per applied delta", roundBuckets()),
		applyTime: r.Histogram("cst_delta_apply_seconds", "wall-clock delta scheduling time", obs.ExponentialBuckets(1e-6, 2, 20)),
	}
}

// DeltaSessions returns how many delta sessions are open.
func (s *Simulator) DeltaSessions() int { return len(s.sessions) }

// ApplyDelta mutates session id's communication set by remove/add (in
// that order) and re-schedules it. Communications must be right-oriented
// (src < dst) and the mutated set well-nested — violations reject with an
// error wrapping padr.ErrDelta and leave the session exactly as it was.
// A first delta against an unknown id opens the session with an empty
// set; ErrSessionsFull rejects the open when the cap is reached.
func (s *Simulator) ApplyDelta(id uint64, remove, add []comm.Comm) (DeltaResult, error) {
	s.dmet.requests.Inc()
	start := time.Time{}
	if s.tracer != nil && s.span.Valid() {
		start = time.Now()
	}
	res, err := s.applyDelta(id, remove, add)
	if !start.IsZero() {
		rec := obs.SpanRecord{
			Trace: s.span.Trace, Span: s.tracer.NewSpanID(), Parent: s.span.Span,
			Name: "online.delta", Engine: "online",
			Start: start, End: time.Now(), N: res.Rounds,
		}
		if err != nil {
			rec.Err = err.Error()
		}
		s.tracer.EmitSpan(rec)
	}
	return res, err
}

func (s *Simulator) applyDelta(id uint64, remove, add []comm.Comm) (DeltaResult, error) {
	t0 := time.Now()
	sess, open := s.sessions[id]
	if !open {
		if len(s.sessions) >= s.deltaCap {
			return DeltaResult{Session: id}, ErrSessionsFull
		}
		sess = &deltaSession{
			xbars: circuit.NewSwitches(s.tree),
			set:   &comm.Set{N: s.tree.Leaves()},
		}
	}

	// Warm path: the engine still trusts its Phase 1 snapshot, so the
	// delta re-floats control words only along the dirty root paths.
	if sess.eng != nil && sess.eng.Ready() {
		rounds, err := sess.eng.ApplyRounds(padr.Delta{Remove: remove, Add: add})
		if err == nil {
			sess.comms = mutateComms(sess.comms, remove, add)
			s.dmet.applied.Inc()
			s.dmet.rounds.Observe(float64(rounds))
			s.dmet.applyTime.ObserveDuration(time.Since(t0))
			return DeltaResult{Session: id, Rounds: rounds, Width: rounds, Size: len(sess.comms)}, nil
		}
		if errors.Is(err, padr.ErrDelta) {
			// The request is invalid against this session; the engine
			// rolled the mutation back and stays warm.
			s.dmet.rejected.Inc()
			return DeltaResult{Session: id, Size: len(sess.comms)}, err
		}
		// A committed mutation failed mid-run (e.g. an injected fault):
		// the snapshot is void, recover below from the canonical set.
	}

	// Fallback / cold path: rebuild the canonical target set and run it
	// from scratch on a Reset engine.
	target, err := validateMutation(sess.comms, remove, add)
	if err != nil {
		s.dmet.rejected.Inc()
		return DeltaResult{Session: id, Size: len(sess.comms)}, fmt.Errorf("%w: %v", padr.ErrDelta, err)
	}
	sess.set.Comms = target
	if sess.eng == nil {
		sess.eng, err = padr.New(s.tree, sess.set,
			padr.WithCrossbars(sess.xbars),
			// Session engines inherit the simulator's registry, tracer and
			// fault plan, like the batch engines do.
			padr.WithRegistry(s.reg),
			padr.WithTracer(s.tracer),
			padr.WithFaults(s.inj))
	} else {
		err = sess.eng.Reset(sess.set)
	}
	if err != nil {
		// New/Reset only fail on an invalid set — a delta that broke
		// well-nestedness slips past the pairwise checks above.
		s.dmet.rejected.Inc()
		return DeltaResult{Session: id, Size: len(sess.comms)}, fmt.Errorf("%w: %v", padr.ErrDelta, err)
	}
	rounds, err := sess.eng.RunRounds()
	if err != nil {
		// The fallback run itself failed (persistent fault). The session
		// keeps its previous canonical set; the engine is not ready, so
		// the next delta retries this path.
		return DeltaResult{Session: id, Size: len(sess.comms), Fallback: true},
			fmt.Errorf("online: delta fallback run: %w", err)
	}
	sess.comms = append(sess.comms[:0], target...)
	if !open {
		s.sessions[id] = sess
	}
	s.dmet.fallbacks.Inc()
	s.dmet.rounds.Observe(float64(rounds))
	s.dmet.applyTime.ObserveDuration(time.Since(t0))
	return DeltaResult{Session: id, Rounds: rounds, Width: rounds,
		Size: len(sess.comms), Fallback: true}, nil
}

// CloseDeltaSession drops a session and frees its engine and crossbars.
// Closing an unknown session is a no-op.
func (s *Simulator) CloseDeltaSession(id uint64) { delete(s.sessions, id) }

// mutateComms applies an already-validated delta to comms in place.
func mutateComms(comms []comm.Comm, remove, add []comm.Comm) []comm.Comm {
	for _, c := range remove {
		for i, have := range comms {
			if have == c {
				comms[i] = comms[len(comms)-1]
				comms = comms[:len(comms)-1]
				break
			}
		}
	}
	return append(comms, add...)
}

// validateMutation builds the canonical post-delta set without touching
// comms, rejecting removes of absent pairs. Structural validity of the
// result (orientation, endpoint conflicts, well-nestedness) is left to
// the engine's own set validation.
func validateMutation(comms []comm.Comm, remove, add []comm.Comm) ([]comm.Comm, error) {
	target := append(make([]comm.Comm, 0, len(comms)+len(add)), comms...)
	for _, c := range remove {
		found := false
		for i, have := range target {
			if have == c {
				target[i] = target[len(target)-1]
				target = target[:len(target)-1]
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("remove %s: not in the session set", c)
		}
	}
	return append(target, add...), nil
}
