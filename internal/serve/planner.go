// The planner is the set-scheduling front end of the service: where the
// Pool answers point requests (one src/dst pair against a live simulator),
// the Planner answers whole communication sets — including non-well-nested
// ones — by running the hybrid planner (one coloring of the whole set over
// directed tree links, which on the paper's own inputs is the paper's
// schedule) and returning the plan's shape and power bill. Planning is CPU
// work on one hybrid.Scheduler, whose buffers every plan reuses, so a
// mutex serializes plans; the per-size topology trees are cached across
// requests.
//
// The Planner deliberately does not touch the Pool: admission counters,
// the drain ledger and the zero-alloc pair path are invariants of the
// point-request plane, and set planning must not perturb them.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cst/internal/comm"
	"cst/internal/hybrid"
	"cst/internal/obs"
	"cst/internal/topology"
	"cst/internal/wire"
)

// MaxPlanComms bounds the communications accepted in one set plan. The
// wire protocol enforces a similar bound structurally (a set request must
// fit one frame); this is the HTTP-side equivalent.
const MaxPlanComms = 1024

// MaxPlanPEs caps the PE count n of a planned set on both transports.
// Planning costs O(n) whatever the set's size, so n, not the comm count,
// bounds what one request can cost: on a 2-vCPU Xeon VM a one-comm plan
// at n = 16,384 takes about 0.14 ms on a warm planner, with no
// allocation, and the first plan at that n, which builds the tree and
// grows the scheduler's buffers, about 1.3 ms and 3 MiB; at n = 65,536
// the two take 0.7 ms, and 2.2 ms and 12 MiB, all under the planner's
// mutex. The cap also bounds the tree cache to log2(MaxPlanPEs) trees
// (0.4 MiB at the cap), and it leaves 8x room over the n = 2,048 a full
// MaxPlanComms set needs.
//
// It bounds what the planner retains between plans too: its one
// hybrid.Scheduler keeps the scratch of the largest plan it has served.
// The worst case is MaxPlanComms circuits crossing the root at the cap,
// 1,024 rounds: 11.7 MiB beside the trees, 8 MiB of it the occupancy
// table. A random two-sided set of that size (262 rounds) leaves 5.4 MiB,
// and at n = 2,048 the two leave 1.6 and 0.8 MiB.
const MaxPlanPEs = 1 << 14

// PlannerConfig parameterizes a Planner. Plans use the hybrid default
// hybrid.DefaultExactBudget and the MaxPlanComms and MaxPlanPEs caps.
type PlannerConfig struct {
	// Registry receives the cst_hybrid_* series; nil leaves the planner
	// uninstrumented.
	Registry *obs.Registry
	// Tracer receives the hybrid stage spans of sampled plans, and the
	// hybrid replay events of sampled plans or of every plan when the
	// tracer streams to a sink or writer (the audit pipeline, a trace
	// file); nil no-ops.
	Tracer *obs.Tracer
}

// plannerMetrics holds the cst_hybrid_* handles (nil handles no-op).
// Requests and planned counts follow the pool idiom: unlabeled aggregates
// plus {protocol=...} labeled twins.
type plannerMetrics struct {
	requests *obs.Counter
	planned  *obs.Counter
	failed   *obs.Counter
	units    *obs.Counter
	trees    *obs.Gauge
	rounds   *obs.Histogram
	seconds  *obs.Histogram
	proto    [protoCount]plannerProtoMetrics
}

type plannerProtoMetrics struct {
	requests *obs.Counter
	planned  *obs.Counter
}

func newPlannerMetrics(r *obs.Registry) plannerMetrics {
	m := plannerMetrics{
		requests: r.Counter("cst_hybrid_requests_total", "set scheduling requests received"),
		planned:  r.Counter("cst_hybrid_planned_total", "set scheduling requests planned"),
		failed:   r.Counter("cst_hybrid_failed_total", "set scheduling requests refused or failed"),
		units:    r.Counter("cst_hybrid_units_total", "power units billed across planned sets"),
		trees:    r.Gauge("cst_hybrid_cached_trees", "topology trees cached by the set planner, one per requested n"),
		rounds:   r.Histogram("cst_hybrid_rounds", "composite rounds per planned set", obs.ExponentialBuckets(1, 2, 10)),
		seconds:  r.Histogram("cst_hybrid_plan_seconds", "wall-clock planning latency", obs.ExponentialBuckets(0.0001, 2, 16)),
	}
	for i, name := range protoNames {
		lbl := `{protocol="` + name + `"}`
		m.proto[i] = plannerProtoMetrics{
			requests: r.Counter("cst_hybrid_requests_total"+lbl, "set scheduling requests received"),
			planned:  r.Counter("cst_hybrid_planned_total"+lbl, "set scheduling requests planned"),
		}
	}
	return m
}

// SetComm is one scheduled communication in a SetResult round.
type SetComm struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// SetResult is the outcome of planning one communication set. Status
// follows HTTP semantics on both transports: 200 planned, 400 invalid
// set, 413 set too large, 500 planner failure.
type SetResult struct {
	Status int `json:"status"`
	// Rounds is the plan's round count; Bound the joint first-fit round
	// count it never exceeds; Width the link-width lower bound, so
	// Width <= Rounds <= Bound.
	Rounds int `json:"rounds"`
	Bound  int `json:"bound"`
	Width  int `json:"width"`
	// Batches, ResidualComms and Strategy carry hybrid.Plan's fields of
	// the same names: on every plan 0, the set's size and
	// hybrid.StrategyColoring.
	Batches       int    `json:"batches"`
	ResidualComms int    `json:"residual_comms"`
	Strategy      string `json:"strategy,omitempty"`
	// Units is the composite power bill in switch-round units.
	Units     int64 `json:"units"`
	Exhausted bool  `json:"exhausted,omitempty"`
	// Schedule carries the round-by-round assignment when the caller
	// asked for it (HTTP does; the wire path returns counts only).
	Schedule [][]SetComm `json:"schedule,omitempty"`
	Err      string      `json:"error,omitempty"`
	// TraceID is the request's trace id when the request was sampled (set
	// by the transport).
	TraceID string `json:"trace_id,omitempty"`
}

// Planner plans whole communication sets through the hybrid pipeline.
// Construct with NewPlanner; Plan is safe for concurrent use.
type Planner struct {
	cfg PlannerConfig
	met plannerMetrics

	mu    sync.Mutex
	trees map[int]*topology.Tree
	sched hybrid.Scheduler // plans every set, under mu
}

// NewPlanner builds a set planner.
func NewPlanner(cfg PlannerConfig) *Planner {
	return &Planner{
		cfg:   cfg,
		met:   newPlannerMetrics(cfg.Registry),
		trees: make(map[int]*topology.Tree),
	}
}

// Plan schedules one communication set and reports the composite plan.
// proto attributes the request to a transport for metrics; includeRounds
// asks for the full round-by-round schedule in the result (the wire path
// declines, so pooled connection slots never retain schedules).
func (p *Planner) Plan(s *comm.Set, proto uint8, includeRounds bool) SetResult {
	return p.plan(s, proto, includeRounds, obs.SpanContext{})
}

// plan is Plan attributed to a request trace, the path both transports
// share: when sctx is sampled, a "serve.plan" span covering the whole call
// is emitted, and the hybrid pipeline stages become its children. A nil
// Planner answers 501: set planning is not enabled.
func (p *Planner) plan(s *comm.Set, proto uint8, includeRounds bool, sctx obs.SpanContext) (res SetResult) {
	if p == nil {
		return SetResult{Status: 501, Err: "serve: set planning not enabled"}
	}
	start := time.Now()
	var planCtx obs.SpanContext
	if p.cfg.Tracer != nil && sctx.Valid() {
		// Pre-allocate the serve.plan span id so the hybrid stage spans can
		// parent under it even though spans are emitted at end time.
		planCtx = obs.SpanContext{Trace: sctx.Trace, Span: p.cfg.Tracer.NewSpanID(), Sampled: true}
		defer func() {
			p.cfg.Tracer.EmitSpan(obs.SpanRecord{
				Trace: planCtx.Trace, Span: planCtx.Span, Parent: sctx.Span,
				Name: "serve.plan", Engine: "hybrid",
				Start: start, End: time.Now(),
				Status: res.Status, N: s.Len(), Err: res.Err,
			})
		}()
	}
	p.met.requests.Inc()
	if int(proto) < protoCount {
		p.met.proto[proto].requests.Inc()
	}
	if s.Len() > MaxPlanComms {
		p.met.failed.Inc()
		return SetResult{Status: 413, Err: "serve: set too large"}
	}
	if s.N > MaxPlanPEs {
		p.met.failed.Inc()
		return SetResult{Status: 413, Err: fmt.Sprintf("serve: n = %d over the %d-PE cap", s.N, MaxPlanPEs)}
	}

	p.mu.Lock()
	res = p.schedule(s, includeRounds, planCtx)
	p.mu.Unlock()
	if res.Status != 200 {
		p.met.failed.Inc()
		return res
	}
	p.met.planned.Inc()
	if int(proto) < protoCount {
		p.met.proto[proto].planned.Inc()
	}
	p.met.units.Add(res.Units)
	p.met.rounds.Observe(float64(res.Rounds))
	p.met.seconds.ObserveDuration(time.Since(start))
	return res
}

// schedule plans s on the cached tree for its n, under p.mu. The plan is
// the scheduler's storage until its next call, so everything the result
// carries is copied out here, before the caller unlocks.
func (p *Planner) schedule(s *comm.Set, includeRounds bool, planCtx obs.SpanContext) SetResult {
	tree := p.trees[s.N]
	if tree == nil {
		t, err := topology.New(s.N)
		if err != nil {
			return SetResult{Status: 400, Err: err.Error()}
		}
		tree = t
		p.trees[s.N] = tree
		p.met.trees.Set(int64(len(p.trees)))
	}
	// Engine events cost a JSON encoding each, so an unsampled plan emits
	// them only when a consumer beyond the ring reads every event.
	var engineTracer *obs.Tracer
	if planCtx.Valid() || p.cfg.Tracer.Streaming() {
		engineTracer = p.cfg.Tracer
	}
	plan, err := p.sched.Schedule(tree, s,
		hybrid.WithTracer(engineTracer),
		hybrid.WithSpanContext(planCtx))
	if err != nil {
		// hybrid.Schedule validates the set: the planner does not again.
		if errors.Is(err, hybrid.ErrInvalidSet) {
			return SetResult{Status: 400, Err: err.Error()}
		}
		return SetResult{Status: 500, Err: err.Error()}
	}
	res := SetResult{
		Status:        200,
		Rounds:        plan.Rounds,
		Bound:         plan.Bound,
		Width:         plan.Width,
		Batches:       plan.Batches,
		ResidualComms: plan.ResidualComms,
		Strategy:      plan.Strategy,
		Units:         int64(plan.Report.TotalUnits()),
		Exhausted:     plan.Exhausted,
	}
	if includeRounds {
		res.Schedule = make([][]SetComm, len(plan.Schedule.Rounds))
		for i, round := range plan.Schedule.Rounds {
			rs := make([]SetComm, len(round))
			for j, c := range round {
				rs[j] = SetComm{Src: c.Src, Dst: c.Dst}
			}
			res.Schedule[i] = rs
		}
	}
	return res
}

// strategyCode maps a SetResult's strategy onto its wire code: a plan's
// is StrategyColoring, and a refused set carries none.
func strategyCode(s string) uint8 {
	if s == hybrid.StrategyColoring {
		return wire.StrategyColoring
	}
	return wire.StrategyNone
}
