// Package online runs the scheduler against dynamically arriving traffic —
// the setting a deployed CST interconnect actually faces, and a natural
// extension of the paper's one-shot model.
//
// Requests (single communications) arrive over time. Whenever the fabric is
// idle, the dispatcher drains a batch from the queue: it picks the
// orientation with more pending requests, greedily builds a maximal
// *well-nested* subset of that orientation in FIFO order (skipping requests
// that would cross an accepted one), and runs the paper's algorithm on the
// batch over the shared crossbars (leftward batches run through the
// reflection adapter). A batch of width w occupies the fabric for w rounds;
// arrivals continue to queue meanwhile.
//
// Serve takes a whole batch that arrives at once instead, without queueing
// it: it splits the batch into runs by the same rule plus one more, no PE
// in two requests of one run, and runs them back to back. Dispatch and
// Serve share the run builder and the run executor.
//
// Reported metrics: per-request latency (completion round − arrival round),
// batch shapes, and the cumulative power ledger — which stays small because
// crossbars are shared across batches and held configurations are free.
package online

import (
	"fmt"
	"math/rand"
	"time"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/fault"
	"cst/internal/obs"
	"cst/internal/padr"
	"cst/internal/power"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// MaxDispatchAttempts bounds how often Dispatch re-runs a failed batch
// (first attempt plus retries) before quarantining it. Retries run on a
// fresh engine over restored crossbars with exponential simulated-round
// backoff, so a transient fault (gone on the next injector run) recovers,
// while a poisoned set fails fast and is expelled from the queue.
const MaxDispatchAttempts = 3

// Request is one communication arriving at a given round.
type Request struct {
	// Comm is the communication (either orientation).
	Comm comm.Comm
	// Arrival is the round the request entered the queue.
	Arrival int
}

// Completed records one fulfilled request.
type Completed struct {
	Request
	// Dispatched is the round its batch started; Finished the round it
	// completed.
	Dispatched, Finished int
}

// Stats summarizes a run.
type Stats struct {
	// Completed lists fulfilled requests in completion order.
	Completed []Completed
	// Batches counts dispatches; Rounds is the total fabric rounds
	// consumed (busy rounds); IdleRounds counts rounds with an empty queue.
	Batches, Rounds, IdleRounds int
	// Report is the cumulative power ledger over the whole run.
	Report *power.Report
	// Leftover is the number of requests still queued when the run ended.
	Leftover int
	// Retries counts batch re-runs after a dispatch failure.
	Retries int
	// Quarantined lists requests expelled after a batch exhausted its
	// dispatch attempts; their endpoints were freed so the queue keeps
	// flowing.
	Quarantined []Request
}

// MeanLatency returns the average completion latency in rounds.
func (s *Stats) MeanLatency() float64 {
	if len(s.Completed) == 0 {
		return 0
	}
	total := 0
	for _, c := range s.Completed {
		total += c.Finished - c.Arrival
	}
	return float64(total) / float64(len(s.Completed))
}

// MaxLatency returns the worst completion latency in rounds.
func (s *Stats) MaxLatency() int {
	maxl := 0
	for _, c := range s.Completed {
		if l := c.Finished - c.Arrival; l > maxl {
			maxl = l
		}
	}
	return maxl
}

// Outcome is Serve's answer for one request of a batch.
type Outcome struct {
	// Dispatched is the round the request's run started; Finished the
	// round it completed.
	Dispatched, Finished int
	// Err is non-nil, and the rounds zero, when the request has bad
	// endpoints or its run was quarantined after MaxDispatchAttempts.
	Err error
}

// pending is one request waiting for a run, with its index in Serve's
// batch (zero in Dispatch's queue).
type pending struct {
	Request
	idx int
}

// Simulator drives an online run.
type Simulator struct {
	tree     *topology.Tree
	switches []*xbar.Switch // physical crossbars, indexed by node
	queue    []pending
	busyPE   []bool
	now      int
	stats    Stats
	inj      *fault.Injector

	// Pooled scheduling state, reused across runs: one engine for whole
	// runs, a scratch Set for the run, and a scratch crossbar
	// snapshot for the failure rollback.
	eng      *padr.Engine
	batchSet *comm.Set
	cfgSnap  []xbar.Config

	// Run scratch, reused across calls so steady-state dispatching and
	// serving allocate nothing: the run under construction; the
	// double-buffer backing the post-dispatch queue (Dispatch partitions
	// s.queue into batchScratch + queueAlt and then swaps queueAlt in as
	// the queue); Serve's two alternating pending lists; and the PE marks
	// of the run being built.
	batchScratch   []pending
	queueAlt       []pending
	serveA, serveB []pending
	runPE          []bool

	// observability (all optional; nil means uninstrumented)
	reg    *obs.Registry
	tracer *obs.Tracer
	met    simMetrics
	// span is the request-scoped trace context the serving layer arms
	// around a Serve call (see SetSpanContext); zero means untraced.
	span obs.SpanContext

	// takenCompleted is how far TakeCompleted has consumed the stats'
	// append-only completion records.
	takenCompleted int

	// Delta sessions (see delta.go): long-lived sets scheduled
	// incrementally on warm engines over private crossbars.
	sessions map[uint64]*deltaSession
	deltaCap int
	dmet     deltaMetrics
}

// Option configures a Simulator.
type Option func(*Simulator)

// WithRegistry publishes the dispatcher's cst_online_* series to r, and
// threads the registry through to the inner padr engines so their
// cst_padr_* series accumulate across batches. A nil registry leaves the
// simulator uninstrumented.
func WithRegistry(r *obs.Registry) Option {
	return func(s *Simulator) { s.reg = r }
}

// WithTracer streams batch lifecycle events (batch.dispatch, batch.done)
// to t, and threads the tracer through to the inner padr engines for
// per-round detail. A nil tracer no-ops.
func WithTracer(t *obs.Tracer) Option {
	return func(s *Simulator) { s.tracer = t }
}

// SetSpanContext arms (or, with the zero context, disarms) a span-trace
// context on the simulator: until changed, every run Dispatch or Serve
// executes stamps its batch.* trace events with the trace id and emits one
// "online.batch" child span. The serving layer sets this around a flush
// that contains a sampled request. The simulator is goroutine-confined, so
// no synchronization is needed.
func (s *Simulator) SetSpanContext(ctx obs.SpanContext) { s.span = ctx }

// traceID renders the armed trace id for event stamping ("" when
// untraced, so the field marshals away).
func (s *Simulator) traceID() string {
	if !s.span.Valid() {
		return ""
	}
	return s.span.Trace.String()
}

// WithFaults threads a fault injector into the batch engines: every
// dispatched batch runs under injection, a failed batch is retried on a
// fresh engine (the transient-fault recovery path), and a batch that keeps
// failing is quarantined. A nil injector is inert.
func WithFaults(in *fault.Injector) Option {
	return func(s *Simulator) { s.inj = in }
}

// simMetrics holds the dispatcher's resolved metric handles; the all-nil
// zero value (nil registry) makes every operation a no-op.
type simMetrics struct {
	requests    *obs.Counter
	rejected    *obs.Counter
	batches     *obs.Counter
	completed   *obs.Counter
	busy        *obs.Counter
	idle        *obs.Counter
	errs        *obs.Counter
	retries     *obs.Counter
	quarantined *obs.Counter
	queueLen    *obs.Gauge
	batchSize   *obs.Histogram
	latency     *obs.Histogram
}

// roundBuckets spans request latencies and batch sizes, both measured in
// small integer counts: 1, 2, 4, … 512.
func roundBuckets() []float64 { return obs.ExponentialBuckets(1, 2, 10) }

func newSimMetrics(r *obs.Registry) simMetrics {
	return simMetrics{
		requests:    r.Counter("cst_online_requests_total", "requests accepted (queued by Submit or taken by Serve)"),
		rejected:    r.Counter("cst_online_rejected_total", "requests rejected (bad endpoints or busy PEs)"),
		batches:     r.Counter("cst_online_batches_total", "well-nested batches dispatched"),
		completed:   r.Counter("cst_online_completed_total", "requests fulfilled"),
		busy:        r.Counter("cst_online_busy_rounds_total", "fabric rounds spent executing batches"),
		idle:        r.Counter("cst_online_idle_rounds_total", "rounds with nothing dispatched"),
		errs:        r.Counter("cst_online_errors_total", "dispatch failures"),
		retries:     r.Counter("cst_online_retries_total", "batch re-runs after a dispatch failure"),
		quarantined: r.Counter("cst_online_quarantined_total", "requests expelled after exhausting dispatch attempts"),
		queueLen:    r.Gauge("cst_online_queue_len", "requests currently queued"),
		batchSize:   r.Histogram("cst_online_batch_size", "communications per dispatched batch", roundBuckets()),
		latency:     r.Histogram("cst_online_request_latency_rounds", "completion round minus arrival round", roundBuckets()),
	}
}

// New builds a simulator over a CST with n leaves.
func New(n int, opts ...Option) (*Simulator, error) {
	t, err := topology.New(n)
	if err != nil {
		return nil, err
	}
	sim := &Simulator{
		tree:     t,
		switches: circuit.NewSwitches(t),
		busyPE:   make([]bool, n),
		runPE:    make([]bool, n),
		batchSet: &comm.Set{N: n},
		sessions: make(map[uint64]*deltaSession),
		deltaCap: DefaultMaxDeltaSessions,
	}
	for _, o := range opts {
		o(sim)
	}
	sim.met = newSimMetrics(sim.reg)
	sim.dmet = newDeltaMetrics(sim.reg)
	return sim, nil
}

// Now returns the current round.
func (s *Simulator) Now() int { return s.now }

// QueueLen returns the number of pending requests.
func (s *Simulator) QueueLen() int { return len(s.queue) }

// Submit enqueues a request at the current round. It rejects requests whose
// endpoints are already in use by a queued request (a PE sources or
// receives one transfer at a time).
func (s *Simulator) Submit(c comm.Comm) error {
	if err := s.check(c); err != nil {
		return err
	}
	if s.busyPE[c.Src] || s.busyPE[c.Dst] {
		s.met.rejected.Inc()
		return fmt.Errorf("online: endpoint of %s is busy", c)
	}
	s.busyPE[c.Src], s.busyPE[c.Dst] = true, true
	s.queue = append(s.queue, pending{Request: Request{Comm: c, Arrival: s.now}})
	s.met.requests.Inc()
	s.met.queueLen.Set(int64(len(s.queue)))
	return nil
}

// check refuses a request whose endpoints are out of range or equal,
// counting the rejection.
func (s *Simulator) check(c comm.Comm) error {
	n := s.tree.Leaves()
	if c.Src < 0 || c.Src >= n || c.Dst < 0 || c.Dst >= n || c.Src == c.Dst {
		s.met.rejected.Inc()
		return fmt.Errorf("online: bad request %s", c)
	}
	return nil
}

// SubmitRandom submits up to k random requests over currently free PEs,
// returning how many were accepted.
func (s *Simulator) SubmitRandom(rng *rand.Rand, k int) int {
	accepted := 0
	n := s.tree.Leaves()
	for i := 0; i < k; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || s.busyPE[a] || s.busyPE[b] {
			continue
		}
		if err := s.Submit(comm.Comm{Src: a, Dst: b}); err == nil {
			accepted++
		}
	}
	return accepted
}

// Tick advances one idle round (used when the caller wants time to pass
// without dispatching).
func (s *Simulator) Tick() {
	s.now++
	s.stats.IdleRounds++
	s.met.idle.Inc()
}

// Dispatch drains one batch: it selects the dominant orientation, builds a
// maximal FIFO well-nested batch, runs the scheduler, advances time by the
// batch's round count, and frees the endpoints. It reports whether any work
// was done.
func (s *Simulator) Dispatch() (bool, error) {
	if len(s.queue) == 0 {
		return false, nil
	}
	batch, rest, right := s.buildRun(s.queue, s.batchScratch[:0], s.queueAlt[:0])
	dispatched, err := s.execute(batch, right)
	for _, r := range batch {
		s.busyPE[r.Comm.Src], s.busyPE[r.Comm.Dst] = false, false
		if err != nil {
			s.stats.Quarantined = append(s.stats.Quarantined, r.Request)
		} else {
			s.stats.Completed = append(s.stats.Completed, Completed{
				Request: r.Request, Dispatched: dispatched, Finished: s.now,
			})
		}
	}
	// rest becomes the queue and the old queue array the next dispatch's
	// rest buffer, keeping both arrays (and the batch scratch) alive.
	s.queueAlt, s.queue, s.batchScratch = s.queue[:0], rest, batch
	s.met.queueLen.Set(int64(len(s.queue)))
	return err == nil, err
}

// Serve schedules a whole batch arriving at the current round, which it
// returns, and writes request i's outcome to out[i], growing out to
// len(batch). It splits the batch into runs by Dispatch's rule plus one
// more, no PE in two requests of one run, so a batch may repeat pairs and
// share endpoints, and runs them back to back with Dispatch's retries,
// quarantine, events and counters. It neither reads nor changes the
// queue, and out is the only record it keeps. With out reused, steady-state
// serving allocates nothing.
func (s *Simulator) Serve(batch []comm.Comm, out []Outcome) (int, []Outcome) {
	arrival := s.now
	if cap(out) < len(batch) {
		out = make([]Outcome, len(batch))
	}
	out = out[:len(batch)]
	pend, spare := s.serveA[:0], s.serveB[:0]
	for i, c := range batch {
		if err := s.check(c); err != nil {
			out[i] = Outcome{Err: err}
			continue
		}
		s.met.requests.Inc()
		pend = append(pend, pending{Request: Request{Comm: c, Arrival: arrival}, idx: i})
	}
	for len(pend) > 0 {
		run, rest, right := s.buildRun(pend, s.batchScratch[:0], spare[:0])
		dispatched, err := s.execute(run, right)
		o := Outcome{Dispatched: dispatched, Finished: s.now}
		if err != nil {
			o = Outcome{Err: err}
		}
		for _, r := range run {
			out[r.idx] = o
		}
		s.batchScratch, pend, spare = run, rest, pend
	}
	s.serveA, s.serveB = pend, spare
	return arrival, out
}

// buildRun splits pend into the next run and the rest, both in FIFO order:
// it picks the orientation with more pending requests, then takes every
// request of it that crosses no taken one and shares no PE with one.
// Dispatch's queue never holds two requests on one PE, so the PE rule only
// shapes Serve's runs. The first request of the chosen orientation is
// always taken, so a non-empty pend yields a non-empty run.
func (s *Simulator) buildRun(pend, run, rest []pending) ([]pending, []pending, bool) {
	rightward := 0
	for _, r := range pend {
		if r.Comm.RightOriented() {
			rightward++
		}
	}
	wantRight := rightward*2 >= len(pend)
next:
	for _, r := range pend {
		c := r.Comm
		if c.RightOriented() != wantRight || s.runPE[c.Src] || s.runPE[c.Dst] {
			rest = append(rest, r)
			continue
		}
		// Crosses is orientation-agnostic and mirror-invariant, so a
		// left-oriented run can be tested in place — no need to mirror
		// each pair onto the reflected line first.
		for _, acc := range run {
			if c.Crosses(acc.Comm) {
				rest = append(rest, r)
				continue next
			}
		}
		s.runPE[c.Src], s.runPE[c.Dst] = true, true
		run = append(run, r)
	}
	for _, r := range run {
		s.runPE[r.Comm.Src], s.runPE[r.Comm.Dst] = false, false
	}
	return run, rest, wantRight
}

// execute runs one built run over the shared crossbars and books it: the
// batch.* events, the online.batch span, the cst_online_* series and the
// Stats aggregates. A failed run is retried on a fresh engine over
// restored crossbars. The backoff is exponential in simulated rounds (1,
// 2, …): a transient fault (scoped to one injector run) has expired by the
// retry, while a poisoned set fails every attempt and is quarantined so it
// cannot wedge the caller. It returns the round the run started (it ends
// at Now) or the quarantine error.
func (s *Simulator) execute(run []pending, right bool) (int, error) {
	set := s.batchSet
	set.Comms = set.Comms[:0]
	for _, r := range run {
		c := r.Comm
		if !right {
			c = comm.Comm{Src: s.tree.Leaves() - 1 - c.Src, Dst: s.tree.Leaves() - 1 - c.Dst}
		}
		set.Comms = append(set.Comms, c)
	}
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{
			Type: "batch.dispatch", Engine: "online", Round: s.now, N: len(run),
			Trace: s.traceID(),
		})
	}
	var batchStart time.Time
	if s.tracer != nil && s.span.Valid() {
		batchStart = time.Now()
	}
	var rounds int
	var err error
	for attempt := 0; attempt < MaxDispatchAttempts; attempt++ {
		if attempt > 0 {
			backoff := 1 << (attempt - 1)
			s.now += backoff
			s.stats.Retries++
			s.met.retries.Inc()
			if s.tracer != nil {
				s.tracer.Emit(obs.Event{
					Type: "batch.retry", Engine: "online", Round: s.now, N: attempt, Err: err.Error(),
					Trace: s.traceID(),
				})
			}
		}
		snap := s.snapshotCrossbars()
		rounds, err = s.runBatch(set, !right)
		if err == nil {
			break
		}
		// The failed run may have left partial circuits on the physical
		// crossbars and the pooled engine mid-schedule. Restore the
		// pre-batch configuration (the reconfiguration is metered — undoing
		// a partial schedule costs real power) and discard the engine so
		// the next borrower sees a fresh one.
		s.restoreCrossbars(snap)
		s.eng = nil
	}
	if err != nil {
		s.met.errs.Inc()
		s.met.quarantined.Add(int64(len(run)))
		if s.tracer != nil {
			s.tracer.Emit(obs.Event{
				Type: "batch.quarantine", Engine: "online", Round: s.now, N: len(run), Err: err.Error(),
				Trace: s.traceID(),
			})
		}
		if !batchStart.IsZero() {
			s.tracer.EmitSpan(obs.SpanRecord{
				Trace: s.span.Trace, Span: s.tracer.NewSpanID(), Parent: s.span.Span,
				Name: "online.batch", Engine: "online",
				Start: batchStart, End: time.Now(), N: len(run), Err: err.Error(),
			})
		}
		return 0, fmt.Errorf("online: batch %s quarantined after %d attempts: %w", set, MaxDispatchAttempts, err)
	}

	dispatched := s.now
	s.now += rounds
	s.stats.Rounds += rounds
	s.stats.Batches++
	s.met.batches.Inc()
	s.met.busy.Add(int64(rounds))
	s.met.batchSize.Observe(float64(len(run)))
	for _, r := range run {
		s.met.completed.Inc()
		s.met.latency.Observe(float64(s.now - r.Arrival))
	}
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{
			Type: "batch.done", Engine: "online", Round: dispatched, N: rounds,
			Trace: s.traceID(),
		})
	}
	if !batchStart.IsZero() {
		s.tracer.EmitSpan(obs.SpanRecord{
			Trace: s.span.Trace, Span: s.tracer.NewSpanID(), Parent: s.span.Span,
			Name: "online.batch", Engine: "online",
			Start: batchStart, End: time.Now(), N: rounds,
		})
	}
	return dispatched, nil
}

// snapshotCrossbars captures every physical switch's configuration so a
// failed batch can be rolled back. The snapshot slice is reused across
// calls (it lives until the next snapshot), so steady-state dispatching
// does not allocate for it.
func (s *Simulator) snapshotCrossbars() []xbar.Config {
	if s.cfgSnap == nil {
		s.cfgSnap = make([]xbar.Config, len(s.switches))
	}
	for n, sw := range s.switches {
		if sw != nil {
			s.cfgSnap[n] = sw.Config()
		}
	}
	return s.cfgSnap
}

// restoreCrossbars reconfigures every physical switch back to the
// snapshot. Restoration goes through the normal Connect/Disconnect path,
// so the meters record the recovery reconfiguration — tearing down a
// partially established schedule is real physical work, not bookkeeping.
func (s *Simulator) restoreCrossbars(snap []xbar.Config) {
	outs := [3]xbar.Side{xbar.L, xbar.R, xbar.P}
	for n, sw := range s.switches {
		if sw == nil {
			continue
		}
		cur := sw.Config()
		for _, out := range outs {
			want := snap[n].Driver(out)
			if cur.Driver(out) == want {
				continue
			}
			if want == xbar.None {
				sw.Disconnect(out)
			} else {
				// A snapshot is one-to-one on inputs, so each desired driver
				// is connected exactly once and later Connects cannot detach
				// an output restored earlier in this loop.
				sw.Connect(want, out)
			}
		}
	}
}

// runBatch schedules one oriented batch over the shared crossbars and
// returns the rounds it consumed. The whole-batch engine is pooled: the
// first dispatch builds it, later dispatches Reset it, so steady-state
// dispatching allocates no engine state.
func (s *Simulator) runBatch(set *comm.Set, reflected bool) (int, error) {
	var err error
	if s.eng == nil {
		s.eng, err = padr.New(s.tree, set,
			padr.WithCrossbars(s.switches),
			padr.WithReflection(reflected),
			// The inner engine inherits our registry, tracer and fault
			// injector, so its cst_padr_* series and per-round events
			// accumulate across batches and every batch runs under the
			// same fault plan.
			padr.WithRegistry(s.reg),
			padr.WithTracer(s.tracer),
			padr.WithFaults(s.inj))
	} else {
		err = s.eng.Reset(set, padr.WithReflection(reflected))
	}
	if err != nil {
		return 0, err
	}
	if s.tracer != nil {
		// Always re-arm (a zero context is inert): a stale context from an
		// errored traced run must not leak into the next batch.
		s.eng.SetSpanContext(s.span)
	}
	// RunRounds skips the Result/Report assembly Run would do — the
	// dispatcher bills power from the shared switch meters at Finish, so
	// per-batch reports would be discarded anyway. This keeps steady-state
	// dispatch at zero allocations (pinned by TestDispatchSteadyStateAllocs).
	return s.eng.RunRounds()
}

// TakeCompleted returns the completion records appended since the previous
// TakeCompleted call, in completion order. The records stay in Stats — the
// cursor only tracks how far this incremental view has read — so Finish
// reporting is unaffected. Callers that drive the queue through Submit and
// Dispatch read completions with it; Serve reports through its outcomes.
func (s *Simulator) TakeCompleted() []Completed {
	out := s.stats.Completed[s.takenCompleted:]
	s.takenCompleted = len(s.stats.Completed)
	return out
}

// Busy reports whether either endpoint is currently reserved by a queued
// request (out-of-range endpoints read as busy). It lets a caller pre-check
// Submit's endpoint conflict without paying Submit's allocated error.
func (s *Simulator) Busy(src, dst int) bool {
	n := len(s.busyPE)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return true
	}
	return s.busyPE[src] || s.busyPE[dst]
}

// Recycle truncates the append-only Completed record list once
// TakeCompleted has consumed it, so a long-lived simulator driven through
// Submit and Dispatch keeps its memory bounded instead of growing with
// every request it ever completed. Slices returned by earlier
// TakeCompleted calls are invalidated — callers must finish with them
// first. Aggregate counters (Batches, Rounds, …) are unaffected; records
// retired here no longer appear in Finish's Stats.
func (s *Simulator) Recycle() {
	if s.takenCompleted == len(s.stats.Completed) {
		s.stats.Completed = s.stats.Completed[:0]
		s.takenCompleted = 0
	}
}

// Drain dispatches until the queue is empty.
func (s *Simulator) Drain() error {
	for len(s.queue) > 0 {
		if _, err := s.Dispatch(); err != nil {
			return err
		}
	}
	return nil
}

// Finish closes the run and returns the statistics.
func (s *Simulator) Finish() *Stats {
	s.stats.Leftover = len(s.queue)
	s.stats.Report = power.Collect("online-padr", power.Stateful, s.stats.Rounds, s.tree, s.switches)
	return &s.stats
}
