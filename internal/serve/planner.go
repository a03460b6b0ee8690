// The planner is the set-scheduling front end of the service: where the
// Pool answers point requests (one src/dst pair against a live simulator),
// the Planner answers whole communication sets — including non-well-nested
// ones — by running the hybrid decompose/peel/color pipeline and returning
// the composite plan's shape and power bill. Planning is CPU work on
// shared physical-switch replay state, so a mutex serializes plans; the
// per-size topology trees are cached across requests.
//
// The Planner deliberately does not touch the Pool: admission counters,
// the drain ledger and the zero-alloc pair path are invariants of the
// point-request plane, and set planning must not perturb them.
package serve

import (
	"sync"
	"time"

	"cst/internal/comm"
	"cst/internal/hybrid"
	"cst/internal/obs"
	"cst/internal/topology"
	"cst/internal/wire"
)

// DefaultMaxPlanComms bounds the communications accepted in one set plan
// when PlannerConfig leaves MaxComms zero. The wire protocol enforces a
// similar bound structurally (a set request must fit one frame); this is
// the HTTP-side equivalent.
const DefaultMaxPlanComms = 1024

// PlannerConfig parameterizes a Planner.
type PlannerConfig struct {
	// ExactBudget is the branch-and-bound node budget for residual
	// coloring; <= 0 uses hybrid.DefaultExactBudget.
	ExactBudget int
	// MaxBatches bounds the well-nested batches peeled per orientation;
	// <= 0 uses hybrid.DefaultMaxBatches.
	MaxBatches int
	// MaxComms bounds the size of one planned set; <= 0 uses
	// DefaultMaxPlanComms.
	MaxComms int
	// Registry receives the cst_hybrid_* series; nil leaves the planner
	// uninstrumented.
	Registry *obs.Registry
	// Tracer receives the hybrid replay trace (and through it the audit
	// pipeline); nil no-ops.
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
	// Rounds is the composite round count; Bound the peel-pipeline total
	// it must not exceed; Width the link-width lower bound.
	Rounds int `json:"rounds"`
	Bound  int `json:"bound"`
	Width  int `json:"width"`
	// Batches and ResidualComms describe the decomposition: how many
	// well-nested batches were peeled and how many communications fell
	// through to graph coloring.
	Batches       int `json:"batches"`
	ResidualComms int `json:"residual_comms"`
	// Strategy is the winning plan, hybrid.StrategyPeel or
	// hybrid.StrategyColoring.
	Strategy string `json:"strategy,omitempty"`
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
}

// NewPlanner builds a set planner.
func NewPlanner(cfg PlannerConfig) *Planner {
	if cfg.MaxComms <= 0 {
		cfg.MaxComms = DefaultMaxPlanComms
	}
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
// is emitted, and the hybrid pipeline stages become its children.
func (p *Planner) plan(s *comm.Set, proto uint8, includeRounds bool, sctx obs.SpanContext) (res SetResult) {
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
	if s.Len() > p.cfg.MaxComms {
		p.met.failed.Inc()
		return SetResult{Status: 413, Err: "serve: set too large"}
	}
	if err := s.Validate(); err != nil {
		p.met.failed.Inc()
		return SetResult{Status: 400, Err: err.Error()}
	}

	p.mu.Lock()
	tree := p.trees[s.N]
	if tree == nil {
		t, err := topology.New(s.N)
		if err != nil {
			p.mu.Unlock()
			p.met.failed.Inc()
			return SetResult{Status: 400, Err: err.Error()}
		}
		tree = t
		p.trees[s.N] = tree
	}
	plan, err := hybrid.Schedule(tree, s,
		hybrid.WithExactBudget(p.cfg.ExactBudget),
		hybrid.WithMaxBatches(p.cfg.MaxBatches),
		hybrid.WithTracer(p.cfg.Tracer),
		hybrid.WithSpanContext(planCtx))
	p.mu.Unlock()
	if err != nil {
		p.met.failed.Inc()
		return SetResult{Status: 500, Err: err.Error()}
	}

	res = SetResult{
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
	p.met.planned.Inc()
	if int(proto) < protoCount {
		p.met.proto[proto].planned.Inc()
	}
	p.met.units.Add(res.Units)
	p.met.rounds.Observe(float64(res.Rounds))
	p.met.seconds.ObserveDuration(time.Since(start))
	return res
}

// strategyCode maps a Plan strategy name onto its wire code.
func strategyCode(s string) uint8 {
	switch s {
	case hybrid.StrategyPeel:
		return wire.StrategyPeel
	case hybrid.StrategyColoring:
		return wire.StrategyColoring
	}
	return wire.StrategyNone
}
