// Package hybrid schedules *arbitrary* valid communication sets — mixed
// orientations, crossing spans — on the CST by conflict coloring over
// directed tree links. It is the circuit/packet hybrid formulation
// (PAPERS.md: "Costly Circuits, Submodular Schedules"; "Better Algorithms
// for Hybrid Circuit and Packet Switching") instantiated on the CST: each
// round is an edge-disjoint set of circuits, filled greedily. On the
// paper's own inputs, oriented well-nested sets, that greedy provably
// takes exactly their width, as the CSA does (Theorem 5), and matched
// padr's rounds on every set checked (DESIGN.md §6b), so the planner
// plans them without running internal/padr.
//
// The pipeline:
//
//  1. Validate the set, once.
//  2. First-fit the whole set on sched's per-round link table
//     (sched.FirstFit), both orientations together, in source order — or,
//     for a set with no rightward communication, in its mirror image's
//     source order: a round holds any circuits whose directed links are
//     disjoint, so {0→8, 12→4} on N=64 (width 1) plans in 1 round. The
//     same pass counts the width, the round lower bound.
//  3. A set whose first-fit missed the width gets the conflict graph of
//     the whole set (general.Graph) and the budget-bounded Exact search,
//     and the plan keeps the better coloring; the Exact incumbent is used
//     even on budget exhaustion. A set whose first-fit meets the width
//     builds no graph.
//  4. The chosen schedule is verified against the tree by sched.Verify,
//     which shares no code with the table, and must not exceed the
//     first-fit round count.
//
// The plan is replayed circuit by circuit on one set of physical switches
// (circuit.ConfigureAny: rounds mix orientations) for the power bill, and
// traced as Engine "hybrid" so internal/audit can independently re-bill it
// and check rounds ≤ Bound, the first-fit round count.
package hybrid

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/general"
	"cst/internal/obs"
	"cst/internal/power"
	"cst/internal/sched"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// Engine is the name hybrid runs are traced and billed under.
const Engine = "hybrid"

// StrategyColoring names how every plan is made: a coloring of the whole
// set over directed tree links, first-fit, or Exact where first-fit missed
// the width.
const StrategyColoring = "coloring"

// DefaultExactBudget is the default branch-and-bound node budget for the
// whole-set coloring a set gets when first-fit misses its width.
// Exhaustion is not a failure: the incumbent is used.
const DefaultExactBudget = 200_000

// ErrInvalidSet wraps the error Schedule returns for a set that fails
// comm.Validate or does not match the tree, as opposed to a planner
// failure.
var ErrInvalidSet = errors.New("hybrid: invalid set")

type config struct {
	mode        power.Mode
	exactBudget int
	tracer      *obs.Tracer
	span        obs.SpanContext
}

// Option configures Schedule.
type Option func(*config)

// WithMode selects the power accounting mode for the composite bill
// (default power.Stateful: holding a connection across rounds is free).
func WithMode(m power.Mode) Option { return func(c *config) { c.mode = m } }

// WithExactBudget bounds the branch-and-bound search; <= 0 keeps
// DefaultExactBudget.
func WithExactBudget(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.exactBudget = n
		}
	}
}

// WithTracer streams the composite replay as Engine "hybrid" trace events
// (run.start, round.start, switch.config, round.done, run.done), the feed
// internal/audit bills independently.
func WithTracer(tr *obs.Tracer) Option { return func(c *config) { c.tracer = tr } }

// WithSpanContext attributes this Schedule call to a request trace: the
// pipeline stages (hybrid.color, hybrid.replay) are emitted as child spans
// of ctx. A zero or unsampled context — or a nil tracer — is inert.
func WithSpanContext(ctx obs.SpanContext) Option { return func(c *config) { c.span = ctx } }

// now reads the clock for a traced Schedule call: only traces carry
// timings, so an untraced call reads none.
func (c *config) now() time.Time {
	if c.tracer == nil {
		return time.Time{}
	}
	return time.Now()
}

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

// Plan is the schedule for an arbitrary set plus the accounting that
// justifies it.
type Plan struct {
	// Schedule is the plan on the original PE line; it has been verified
	// against the tree before being returned.
	Schedule *sched.Schedule
	// Rounds is the plan's round count.
	Rounds int
	// Width is the set's link width — the round lower bound.
	Width int
	// Bound is the round count the plan never exceeds: FirstFitRounds.
	// Width <= Rounds <= Bound always holds; the audit monitor re-checks
	// the upper half from the trace.
	Bound int
	// Strategy, Batches and ResidualComms stay because the wire
	// SetResponse and servebench read them. Every plan is a coloring of
	// the whole set: Strategy is StrategyColoring, Batches is 0 and
	// ResidualComms is the set's size.
	Strategy      string
	Batches       int
	ResidualComms int
	// FirstFitRounds is the round count of the joint first-fit: the whole
	// set, both orientations together, in sched.FirstFit's order. Rounds <=
	// FirstFitRounds by construction.
	FirstFitRounds int
	// Exhausted reports that the Exact search ran out of budget and its
	// incumbent was used.
	Exhausted bool
	// Report is the composite power bill: the plan replayed on one set of
	// physical switches under the configured mode.
	Report *power.Report
}

// Schedule plans an arbitrary valid communication set. The set may mix
// orientations and cross arbitrarily; it must pass comm.Validate and match
// the tree's leaf count, or the error wraps ErrInvalidSet. It is a
// Scheduler's Schedule on a Scheduler of its own, so the plan it returns
// is the caller's to keep.
func Schedule(t *topology.Tree, s *comm.Set, opts ...Option) (*Plan, error) {
	return new(Scheduler).Schedule(t, s, opts...)
}

// Scheduler is the planning pipeline with every buffer a plan needs kept
// between calls: the validator's and the verifier's scratch, the
// first-fit occupancy table, order, round assignment and schedule storage
// (the set copy included), the replay's crossbars and trace marks, and
// the power report. An untraced plan whose first-fit meets the set's
// width, the paper's inputs among them, allocates nothing once the buffers
// have grown; the conflict graph and the Exact search of the other plans
// and trace events allocate as Schedule's do.
//
// A Plan a Scheduler returns (its Schedule, Schedule.Set and Report
// included) is the Scheduler's storage, valid only until its next call: a
// caller that keeps any of it copies it first. Each buffer stays as large
// as the most any one plan has needed, so a Scheduler retains no more than
// one plan's scratch at the largest set and tree it has served. The zero
// value is ready to use; a Scheduler is not safe for concurrent use.
type Scheduler struct {
	cfg    config
	plan   Plan
	valid  comm.Validator
	ff     sched.FirstFitter
	verify sched.Verifier

	switches []*xbar.Switch
	report   power.Report
	// The traced replay's marks: mark[n] == stamp once the round being
	// replayed has snapshotted switch n into before[n] and listed it in
	// touched. Every round takes a fresh stamp, so marks never need
	// clearing.
	mark    []int
	stamp   int
	before  []xbar.Config
	touched []topology.Node
}

// Schedule plans s on t as the package-level Schedule does, on sc's
// buffers.
func (sc *Scheduler) Schedule(t *topology.Tree, s *comm.Set, opts ...Option) (*Plan, error) {
	sc.cfg = config{mode: power.Stateful, exactBudget: DefaultExactBudget}
	for _, o := range opts {
		o(&sc.cfg)
	}
	if t.Leaves() != s.N {
		return nil, fmt.Errorf("%w: tree has %d leaves, set has N=%d", ErrInvalidSet, t.Leaves(), s.N)
	}
	if err := sc.valid.Validate(s); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidSet, err)
	}

	stageStart := sc.cfg.now()
	ff, width := sc.ff.FirstFit(t, s)
	sc.plan = Plan{
		Schedule:       ff,
		Width:          width,
		Bound:          ff.NumRounds(),
		Strategy:       StrategyColoring,
		ResidualComms:  s.Len(),
		FirstFitRounds: ff.NumRounds(),
	}
	plan := &sc.plan
	if ff.NumRounds() > width {
		ex, exhausted, err := general.Incumbent(general.Graph(t, s).Exact(sc.cfg.exactBudget))
		if err != nil {
			return nil, err
		}
		plan.Exhausted = exhausted
		if ex.NumRounds() < ff.NumRounds() {
			plan.Schedule = ex
		}
	}
	plan.Rounds = plan.Schedule.NumRounds()
	stageSpan(&sc.cfg, "hybrid.color", stageStart, plan.Rounds)

	// The plan is checked against the topology before anything is billed
	// or served, by code that shares nothing with the occupancy table.
	if err := sc.verify.Verify(t, plan.Schedule); err != nil {
		return nil, fmt.Errorf("hybrid: schedule invalid: %w", err)
	}
	if plan.Rounds > plan.FirstFitRounds {
		return nil, fmt.Errorf("hybrid: %d rounds exceed the first-fit comparator %d", plan.Rounds, plan.FirstFitRounds)
	}

	stageStart = sc.cfg.now()
	sc.replay(t)
	plan.Report = &sc.report
	stageSpan(&sc.cfg, "hybrid.replay", stageStart, plan.Rounds)
	return plan, nil
}

// replay executes the chosen schedule circuit by circuit on one set of
// physical switches, billing power into sc.report under the configured
// mode and emitting the Engine "hybrid" trace. Rounds mix orientations,
// so circuits are established with circuit.ConfigureAny. The run.done
// event carries Bound in the Width field: the audit monitor checks the
// traced round count against it.
func (sc *Scheduler) replay(t *topology.Tree) {
	plan, cfg := &sc.plan, &sc.cfg
	sc.switches = circuit.ResetSwitches(t, sc.switches)
	switches := sc.switches
	tr := cfg.tracer
	trace := ""
	if cfg.span.Valid() {
		trace = cfg.span.Trace.String()
	}
	runStart := cfg.now()
	// A traced replay diffs only the switches on a round's circuits, the
	// only ones the round can change.
	if tr != nil {
		tr.Emit(obs.Event{Type: "run.start", Engine: Engine, Round: -1,
			N: plan.Schedule.Set.Len(), Mode: cfg.mode.String(), Trace: trace})
		if len(sc.mark) < len(switches) {
			sc.mark = make([]int, len(switches))
			sc.before = make([]xbar.Config, len(switches))
		}
	}
	mark, before := sc.mark, sc.before
	for i, round := range plan.Schedule.Rounds {
		roundStart := cfg.now()
		if tr != nil {
			tr.Emit(obs.Event{Type: "round.start", Engine: Engine, Round: i})
			sc.touched = sc.touched[:0]
			sc.stamp++
		}
		if cfg.mode == power.Stateless {
			t.EachSwitch(func(n topology.Node) { switches[n].Reset() })
		}
		for _, c := range round {
			if tr != nil {
				// Snapshot after the stateless teardown, like padr: every
				// re-established circuit is a traced (and billed) change.
				// Circuits of one round may share a switch, so only its
				// first visit takes the snapshot.
				lca := t.LCA(c.Src, c.Dst)
				for _, leaf := range [2]topology.Node{t.Leaf(c.Src), t.Leaf(c.Dst)} {
					for n := t.Parent(leaf); ; n = t.Parent(n) {
						if mark[n] != sc.stamp {
							mark[n], before[n] = sc.stamp, switches[n].Config()
							sc.touched = append(sc.touched, n)
						}
						if n == lca {
							break
						}
					}
				}
			}
			// The schedule was verified above; a configuration failure here
			// would be a topology bug, not an input error.
			if err := circuit.ConfigureAny(t, switches, c); err != nil {
				panic(fmt.Sprintf("hybrid: replaying verified schedule: %v", err))
			}
		}
		if tr != nil {
			// Trace only genuine reconfigurations, in node order like the
			// engines do: the events are the audit trail for the power bill.
			slices.Sort(sc.touched)
			for _, n := range sc.touched {
				if after := switches[n].Config(); after != before[n] {
					tr.Emit(obs.Event{Type: "switch.config", Engine: Engine,
						Round: i, Node: int(n), Config: after.String()})
				}
			}
			tr.Emit(obs.Event{Type: "round.done", Engine: Engine, Round: i,
				N: len(round), DurNS: time.Since(roundStart).Nanoseconds()})
		}
	}
	sc.report.Collect(Engine, cfg.mode, plan.Rounds, t, switches)
	if tr != nil {
		tr.Emit(obs.Event{Type: "run.done", Engine: Engine, Round: -1,
			N: plan.Rounds, Width: plan.Bound,
			DurNS: time.Since(runStart).Nanoseconds(), Trace: trace})
	}
}
