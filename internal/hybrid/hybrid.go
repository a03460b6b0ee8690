// Package hybrid schedules *arbitrary* valid communication sets — mixed
// orientations, crossing spans — on the CST, by combining the paper's
// circuit-switched engine with conflict-graph coloring. It is the
// circuit/packet hybrid formulation (PAPERS.md: "Costly Circuits,
// Submodular Schedules"; "Better Algorithms for Hybrid Circuit and Packet
// Switching") instantiated on the CST: well-nested batches are the circuit
// half, scheduled through internal/padr in exactly their width; whatever
// crosses is the packet half, colored round-by-round with
// internal/general.
//
// The pipeline:
//
//  1. Decompose the set into a right-oriented and a left-oriented subset
//     (comm.Decompose; the left half arrives mirrored).
//  2. Peel up to MaxBatches maximal well-nested batches per orientation
//     (FIFO in source order, crossing comms deferred) and schedule each
//     through padr — the engine the paper proves round-optimal.
//  3. Color the residual (the crossing leftovers) with FirstFit and Exact
//     from internal/general, keeping the better coloring; the Exact
//     incumbent is used even on budget exhaustion.
//  4. Map mirrored schedules back with sched.UnmirrorSchedule and
//     concatenate the phases with round offsets: right batches, left
//     batches, then the residual rounds last. The orientations are planned
//     apart, so no round holds both even where links would allow it:
//     {0→8, 12→4} on N=64 has width 1 and gets 2 rounds (ROADMAP item 4
//     plans both orientations together).
//  5. Compare against a pure-coloring plan of each half whole and keep
//     whichever needs fewer rounds. This guarantees the composite never
//     exceeds the FirstFit round count, while well-nested-heavy inputs get
//     the circuit engine's optimal rounds.
//
// Each half's conflict graph is built once; the residual's graph is its
// induced subgraph, and FirstFit, Exact and the comparator all share them.
// The chosen plan is replayed circuit-by-circuit on one set of physical
// switches (circuit.ConfigureAny — residual rounds mix orientations) for
// the composite power bill, and traced as Engine "hybrid" so
// internal/audit can independently re-bill it and check the composite
// round bound: rounds ≤ Σ batch widths + residual coloring rounds.
package hybrid

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/general"
	"cst/internal/obs"
	"cst/internal/padr"
	"cst/internal/power"
	"cst/internal/sched"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// Engine is the name hybrid runs are traced and billed under.
const Engine = "hybrid"

// Strategies a plan can come from.
const (
	// StrategyPeel is the circuit-first pipeline: padr batches plus a
	// colored residual.
	StrategyPeel = "peel"
	// StrategyColoring is the pure conflict-coloring fallback; it wins on
	// crossing-heavy sets where peeling buys nothing.
	StrategyColoring = "coloring"
)

// DefaultExactBudget is the default branch-and-bound node budget for the
// residual colorings. Exhaustion is not a failure: the incumbent is used.
const DefaultExactBudget = 200_000

// DefaultMaxBatches is the default number of well-nested batches peeled
// per orientation. One batch per orientation keeps the peel plan inside
// the width(right)+width(leftMirrored)+χ(residual) bound; more batches can
// help width-skewed sets but each adds its own width to the round total.
const DefaultMaxBatches = 1

type config struct {
	mode        power.Mode
	exactBudget int
	maxBatches  int
	tracer      *obs.Tracer
	span        obs.SpanContext
}

// Option configures Schedule.
type Option func(*config)

// WithMode selects the power accounting mode for the composite bill
// (default power.Stateful: holding a connection across rounds is free).
func WithMode(m power.Mode) Option { return func(c *config) { c.mode = m } }

// WithExactBudget bounds the residual branch-and-bound search; <= 0 keeps
// DefaultExactBudget.
func WithExactBudget(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.exactBudget = n
		}
	}
}

// WithMaxBatches bounds how many well-nested batches are peeled per
// orientation; <= 0 keeps DefaultMaxBatches.
func WithMaxBatches(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.maxBatches = n
		}
	}
}

// WithTracer streams the composite replay as Engine "hybrid" trace events
// (run.start, round.start, switch.config, round.done, run.done), the feed
// internal/audit bills independently.
func WithTracer(tr *obs.Tracer) Option { return func(c *config) { c.tracer = tr } }

// WithSpanContext attributes this Schedule call to a request trace: the
// pipeline stages (hybrid.decompose, hybrid.peel, hybrid.color,
// hybrid.replay) are emitted as child spans of ctx. A zero or unsampled
// context — or a nil tracer — is inert.
func WithSpanContext(ctx obs.SpanContext) Option { return func(c *config) { c.span = ctx } }

// stageSpan emits one pipeline-stage span for a traced Schedule call.
func stageSpan(cfg *config, name string, start time.Time, n int) {
	if cfg.tracer == nil || !cfg.span.Valid() {
		return
	}
	cfg.tracer.EmitSpan(obs.SpanRecord{
		Trace: cfg.span.Trace, Span: cfg.tracer.NewSpanID(), Parent: cfg.span.Span,
		Name: name, Engine: Engine,
		Start: start, End: time.Now(), N: n,
	})
}

// Plan is the composite schedule for an arbitrary set plus the accounting
// that justifies it.
type Plan struct {
	// Schedule is the composite schedule on the original PE line; it has
	// been verified against the tree before being returned.
	Schedule *sched.Schedule
	// Rounds is the composite round count.
	Rounds int
	// Width is the full set's link width — the round lower bound.
	Width int
	// Bound is the peel pipeline's round total (Σ padr batch widths +
	// residual coloring rounds). Rounds <= Bound always holds: the chosen
	// plan is the better of the peel and coloring strategies. The audit
	// monitor re-checks this from the trace.
	Bound int
	// Strategy names the winning plan: StrategyPeel or StrategyColoring.
	Strategy string
	// Batches counts the well-nested batches scheduled through padr.
	Batches int
	// BatchRounds is the rounds contributed by those batches (= Σ widths).
	BatchRounds int
	// ResidualComms is how many communications no batch accepted.
	ResidualComms int
	// ResidualRounds is the rounds the residual coloring needed.
	ResidualRounds int
	// FirstFitRounds is the pure-FirstFit comparator on the same
	// decomposition: FirstFit(right) + FirstFit(leftMirrored) rounds.
	// Rounds <= FirstFitRounds by construction.
	FirstFitRounds int
	// Exhausted reports that at least one residual Exact search ran out of
	// budget and its incumbent was used.
	Exhausted bool
	// Report is the composite power bill: every phase replayed on one set
	// of physical switches under the configured mode.
	Report *power.Report
}

// Schedule plans an arbitrary valid communication set. The set may mix
// orientations and cross arbitrarily; it must pass comm.Validate and match
// the tree's leaf count.
func Schedule(t *topology.Tree, s *comm.Set, opts ...Option) (*Plan, error) {
	cfg := config{mode: power.Stateful, exactBudget: DefaultExactBudget, maxBatches: DefaultMaxBatches}
	for _, o := range opts {
		o(&cfg)
	}
	if t.Leaves() != s.N {
		return nil, fmt.Errorf("hybrid: tree has %d leaves, set has N=%d", t.Leaves(), s.N)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	width, err := s.Width(t)
	if err != nil {
		return nil, err
	}

	// The halves of a validated set are valid and right oriented, so their
	// conflict graphs are built without checking them again.
	stageStart := time.Now()
	right, leftMirrored := comm.Decompose(s)
	halves := [2]struct {
		set      *comm.Set
		graph    *general.ConflictGraph
		mirrored bool
	}{{set: right}, {set: leftMirrored, mirrored: true}}
	for i := range halves {
		if halves[i].set.Len() > 0 {
			halves[i].graph = general.Graph(t, halves[i].set)
		}
	}
	stageSpan(&cfg, "hybrid.decompose", stageStart, s.Len())

	// Peel strategy: padr batches plus colored residual, phases in order
	// (right batches, left batches, residual last). The left phases are
	// planned on the mirrored line and mapped back.
	plan := &Plan{Width: width}
	stageStart = time.Now()
	var peelRounds [][]comm.Comm
	var residualRounds [][]comm.Comm
	for _, half := range halves {
		batches, residual := peel(half.set, cfg.maxBatches)
		for _, b := range batches {
			eng, err := padr.New(t, b, padr.WithMode(cfg.mode))
			if err != nil {
				return nil, fmt.Errorf("hybrid: batch engine: %w", err)
			}
			res, err := eng.Run()
			if err != nil {
				return nil, fmt.Errorf("hybrid: batch run: %w", err)
			}
			bs := res.Schedule
			if half.mirrored {
				bs = sched.UnmirrorSchedule(bs)
			}
			peelRounds = append(peelRounds, bs.Rounds...)
			plan.Batches++
			plan.BatchRounds += res.Rounds
		}
		if len(residual) > 0 {
			rs, _, exhausted, err := colorBest(half.graph.Induced(t, residual), cfg.exactBudget)
			if err != nil {
				return nil, err
			}
			if half.mirrored {
				rs = sched.UnmirrorSchedule(rs)
			}
			residualRounds = append(residualRounds, rs.Rounds...)
			plan.ResidualComms += len(residual)
			plan.Exhausted = plan.Exhausted || exhausted
		}
	}
	plan.ResidualRounds = len(residualRounds)
	peelRounds = append(peelRounds, residualRounds...)
	plan.Bound = len(peelRounds)
	stageSpan(&cfg, "hybrid.peel", stageStart, plan.Bound)

	// Coloring strategy: color each decomposition half whole. FirstFit is
	// always computed — it is the comparator the plan must never exceed —
	// and Exact may improve on it.
	stageStart = time.Now()
	var colorRounds [][]comm.Comm
	colorExhausted := false
	for _, half := range halves {
		if half.set.Len() == 0 {
			continue
		}
		cs, ffRounds, exhausted, err := colorBest(half.graph, cfg.exactBudget)
		if err != nil {
			return nil, err
		}
		plan.FirstFitRounds += ffRounds
		if half.mirrored {
			cs = sched.UnmirrorSchedule(cs)
		}
		colorRounds = append(colorRounds, cs.Rounds...)
		colorExhausted = colorExhausted || exhausted
	}
	stageSpan(&cfg, "hybrid.color", stageStart, len(colorRounds))

	if len(colorRounds) < len(peelRounds) {
		plan.Strategy = StrategyColoring
		plan.Schedule = &sched.Schedule{Set: s.Clone(), Rounds: colorRounds}
		plan.Exhausted = colorExhausted
	} else {
		plan.Strategy = StrategyPeel
		plan.Schedule = &sched.Schedule{Set: s.Clone(), Rounds: peelRounds}
	}
	plan.Rounds = plan.Schedule.NumRounds()

	// The composite is checked against the topology before anything is
	// billed or served: merge bugs must not survive this function.
	if err := plan.Schedule.Verify(t); err != nil {
		return nil, fmt.Errorf("hybrid: composite schedule invalid: %w", err)
	}
	if plan.Rounds > plan.FirstFitRounds {
		return nil, fmt.Errorf("hybrid: %d rounds exceed the FirstFit comparator %d", plan.Rounds, plan.FirstFitRounds)
	}

	stageStart = time.Now()
	plan.Report = replay(t, plan, cfg)
	stageSpan(&cfg, "hybrid.replay", stageStart, plan.Rounds)
	return plan, nil
}

// colorBest colors a conflict graph's (possibly crossing) right-oriented
// set with FirstFit and budget-bounded Exact, returning whichever schedule
// uses fewer rounds and FirstFit's round count. The Exact incumbent is
// kept on budget exhaustion — dropping it was the bug this package's
// residual path regression-tests against.
func colorBest(g *general.ConflictGraph, budget int) (best *sched.Schedule, firstFit int, exhausted bool, err error) {
	ff := g.FirstFit()
	ex, exhausted, err := general.Incumbent(g.Exact(budget))
	if err != nil {
		return nil, 0, false, err
	}
	if ex.NumRounds() < ff.NumRounds() {
		return ex, ff.NumRounds(), exhausted, nil
	}
	return ff, ff.NumRounds(), exhausted, nil
}

// peel splits a valid right-oriented set into up to maxBatches well-nested
// batches plus the residual, given as indices into s.Comms in source
// order. Each batch is built FIFO in source order: a communication joins
// unless it crosses one already accepted, so every batch is maximal among
// the communications it saw. Subsets of a valid right-oriented set with
// no crossing pair are exactly the well-nested sets, so each batch feeds
// padr directly.
func peel(s *comm.Set, maxBatches int) (batches []*comm.Set, residual []int) {
	remaining := make([]int, s.Len())
	for i := range remaining {
		remaining[i] = i
	}
	// Sources are distinct in a valid set, so the order is total.
	slices.SortFunc(remaining, func(a, b int) int { return cmp.Compare(s.Comms[a].Src, s.Comms[b].Src) })
	for len(remaining) > 0 && len(batches) < maxBatches {
		batch := make([]comm.Comm, 0, len(remaining))
		var rest []int
		for _, i := range remaining {
			c := s.Comms[i]
			crosses := false
			for _, b := range batch {
				if c.Crosses(b) {
					crosses = true
					break
				}
			}
			if crosses {
				rest = append(rest, i)
			} else {
				batch = append(batch, c)
			}
		}
		batches = append(batches, &comm.Set{N: s.N, Comms: batch})
		remaining = rest
	}
	return batches, remaining
}

// replay executes the chosen composite schedule circuit-by-circuit on one
// set of physical switches, billing power under the configured mode and
// emitting the Engine "hybrid" trace. Residual rounds mix orientations, so
// circuits are established with circuit.ConfigureAny. The run.done event
// carries Bound in the Width field: the audit monitor checks the traced
// round count against it.
func replay(t *topology.Tree, plan *Plan, cfg config) *power.Report {
	switches := circuit.NewSwitches(t)
	tr := cfg.tracer
	trace := ""
	if cfg.span.Valid() {
		trace = cfg.span.Trace.String()
	}
	runStart := time.Now()
	if tr != nil {
		tr.Emit(obs.Event{Type: "run.start", Engine: Engine, Round: -1,
			N: plan.Schedule.Set.Len(), Mode: cfg.mode.String(), Trace: trace})
	}
	var before []xbar.Config
	if tr != nil {
		before = make([]xbar.Config, len(switches))
	}
	for i, round := range plan.Schedule.Rounds {
		roundStart := time.Now()
		if tr != nil {
			tr.Emit(obs.Event{Type: "round.start", Engine: Engine, Round: i})
		}
		if cfg.mode == power.Stateless {
			t.EachSwitch(func(n topology.Node) { switches[n].Reset() })
		}
		if tr != nil {
			// Snapshot after the stateless teardown, like padr: every
			// re-established circuit is a traced (and billed) change.
			t.EachSwitch(func(n topology.Node) { before[n] = switches[n].Config() })
		}
		for _, c := range round {
			// The schedule was verified above; a configuration failure here
			// would be a topology bug, not an input error.
			if err := circuit.ConfigureAny(t, switches, c); err != nil {
				panic(fmt.Sprintf("hybrid: replaying verified schedule: %v", err))
			}
		}
		if tr != nil {
			// Trace only genuine reconfigurations, like the engines do: the
			// events are the audit trail for the composite power bill.
			t.EachSwitch(func(n topology.Node) {
				if after := switches[n].Config(); after != before[n] {
					tr.Emit(obs.Event{Type: "switch.config", Engine: Engine,
						Round: i, Node: int(n), Config: after.String()})
				}
			})
			tr.Emit(obs.Event{Type: "round.done", Engine: Engine, Round: i,
				N: len(round), DurNS: time.Since(roundStart).Nanoseconds()})
		}
	}
	report := power.Collect(Engine, cfg.mode, plan.Rounds, t, switches)
	if tr != nil {
		tr.Emit(obs.Event{Type: "run.done", Engine: Engine, Round: -1,
			N: plan.Rounds, Width: plan.Bound,
			DurNS: time.Since(runStart).Nanoseconds(), Trace: trace})
	}
	return report
}
