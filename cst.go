// Package cst is a library for power-aware routing and scheduling of
// communications on the Circuit Switched Tree (CST), reproducing
// El-Boghdadi, "Power-Aware Routing for Well-Nested Communications On The
// Circuit Switched Tree" (IPDPS/IPPS 2007).
//
// The CST is a complete binary tree whose leaves are processing elements
// and whose internal nodes are three-sided circuit switches. The library
// provides:
//
//   - the tree substrate and switch model (NewTree, the Tree and Comm
//     types),
//   - well-nested communication sets: parsing, validation, width, and a
//     family of workload generators,
//   - the paper's Configuration and Scheduling Algorithm under Power-Aware
//     Dynamic Reconfiguration: Run (sequential reference) and RunConcurrent
//     (one goroutine per tree node, channels as links),
//   - baselines for comparison (RunDepthID, RunGreedy) and three power
//     accounting modes,
//   - the segmentable-bus and SRGA-grid substrates built on top, and
//   - renderers and an experiment harness that regenerates every claim in
//     the paper (see EXPERIMENTS.md).
//
// Quick start:
//
//	set := cst.MustParse("((.)(.))")        // 8 PEs, 3 communications
//	tree, _ := cst.NewTree(set.N)
//	res, _ := cst.Run(tree, set)
//	fmt.Println(res.Rounds)                  // == width of the set
//	fmt.Println(res.Report.Summary())        // power ledger per Theorem 8
package cst

import (
	"context"
	"math/rand"

	"cst/internal/audit"
	"cst/internal/baseline"
	"cst/internal/comm"
	"cst/internal/deliver"
	"cst/internal/energy"
	"cst/internal/export"
	"cst/internal/fault"
	"cst/internal/general"
	"cst/internal/harness"
	"cst/internal/hybrid"
	"cst/internal/obs"
	"cst/internal/online"
	"cst/internal/padr"
	"cst/internal/power"
	"cst/internal/sched"
	"cst/internal/segbus"
	"cst/internal/selfroute"
	"cst/internal/serve"
	"cst/internal/sim"
	"cst/internal/srga"
	"cst/internal/timing"
	"cst/internal/topology"
	"cst/internal/trace"
	"cst/internal/wire"
	"cst/internal/xbar"
)

// Tree is the circuit switched tree substrate (heap-indexed complete binary
// tree; leaves are PEs, internal nodes are 3-sided switches).
type Tree = topology.Tree

// Node is a tree node handle.
type Node = topology.Node

// NewTree builds a CST with n leaves (n a power of two, >= 2).
func NewTree(n int) (*Tree, error) { return topology.New(n) }

// MustNewTree is NewTree but panics on error; intended for tests and
// examples with constant sizes. Library and CLI code paths use NewTree and
// propagate the error.
func MustNewTree(n int) *Tree { return topology.MustNew(n) }

// Comm is one communication: data flows from PE Src to PE Dst.
type Comm = comm.Comm

// Set is a communication set over N PEs.
type Set = comm.Set

// NewSet builds a set over n PEs.
func NewSet(n int, comms ...Comm) *Set { return comm.NewSet(n, comms...) }

// Parse builds a set from a parenthesis expression like "((.)(.))".
func Parse(expr string) (*Set, error) { return comm.Parse(expr) }

// MustParse is Parse but panics on error; intended for tests and examples
// with constant expressions. Library and CLI code paths use Parse and
// propagate the error.
func MustParse(expr string) *Set { return comm.MustParse(expr) }

// Decompose splits an arbitrary set into a right-oriented subset and the
// mirror image of its left-oriented subset, both schedulable by Run.
func Decompose(s *Set) (right, leftMirrored *Set) { return comm.Decompose(s) }

// Workload generators (all deterministic given the *rand.Rand).
var (
	// RandomWellNested draws a uniform well-nested set with m communications.
	RandomWellNested = comm.RandomWellNested
	// RandomWellNestedWidth draws a well-nested set of an exact link width.
	RandomWellNestedWidth = comm.RandomWellNestedWidth
	// NestedChain is the root-crossing width-w chain ((((…)))).
	NestedChain = comm.NestedChain
	// SplitChain is the chain whose sources split across two subtrees — the
	// adversarial workload for configuration churn.
	SplitChain = comm.SplitChain
	// CompactChain packs a chain into the leftmost 2w PEs.
	CompactChain = comm.CompactChain
	// DisjointPairs is the width-1 comb ()()().
	DisjointPairs = comm.DisjointPairs
	// SiblingForest is several side-by-side chains.
	SiblingForest = comm.SiblingForest
	// Staircase is an outer span over many disjoint inner pairs.
	Staircase = comm.Staircase
	// BitReversal is the FFT-style bit-reversal pairing — crossing-heavy,
	// not well nested; for the general scheduler.
	BitReversal = comm.BitReversal
	// CrossingPairs is the pairwise-crossing comb with alternating
	// orientations — no two communications nest; the adversarial workload
	// for the hybrid planner's residual path.
	CrossingPairs = comm.CrossingPairs
	// RandomOriented draws an arbitrary right-oriented (possibly crossing) set.
	RandomOriented = comm.RandomOriented
	// RandomTwoSided draws an arbitrary set with both orientations.
	RandomTwoSided = comm.RandomTwoSided
)

// Workload combinators (Set also has Translate/Within/Pad methods).
var (
	// Concat places one set's PE line to the right of another's.
	Concat = comm.Concat
	// Nest wraps a set in one enclosing communication (depth + 1).
	Nest = comm.Nest
)

// Schedule is a multi-round schedule with an independent verifier
// (Verify / VerifyOptimal).
type Schedule = sched.Schedule

// PowerMode selects how switch state is treated across rounds.
type PowerMode = power.Mode

// Power accounting modes.
const (
	// Stateful holds configurations across rounds (the PADR design point);
	// only genuine changes cost power.
	Stateful = power.Stateful
	// Stateless tears every switch down each round; every connection is
	// re-established and billed.
	Stateless = power.Stateless
)

// PowerReport is the per-run power ledger (units and alternations per
// switch).
type PowerReport = power.Report

// Result is the outcome of a PADR run.
type Result = padr.Result

// Option configures a PADR run.
type Option = padr.Option

// WithMode selects the power accounting mode for Run.
func WithMode(m PowerMode) Option { return padr.WithMode(m) }

// Observer carries optional per-round callbacks for Run.
type Observer = padr.Observer

// WithObserver attaches callbacks to Run.
func WithObserver(o Observer) Option { return padr.WithObserver(o) }

// Selection chooses when a switch starts its own matched pairs; see the
// padr package and experiment E12 for the tradeoff between the two rules.
type Selection = padr.Selection

// Selection rules.
const (
	// GreedySelection is the literal Fig. 5 pseudocode (default):
	// time-optimal on every input.
	GreedySelection = padr.Greedy
	// ConservativeSelection enforces the paper's satisfy-outer-first prose:
	// O(1) changes per switch on every input, possibly extra rounds.
	ConservativeSelection = padr.Conservative
)

// WithSelection picks the selection rule for Run.
func WithSelection(s Selection) Option { return padr.WithSelection(s) }

// Run schedules an oriented well-nested set with the paper's CSA algorithm
// (sequential reference engine). The returned schedule uses exactly
// width(set) rounds and every switch spends O(1) power units.
func Run(t *Tree, s *Set, opts ...Option) (*Result, error) {
	e, err := padr.New(t, s, opts...)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// Engine is a reusable PADR scheduling engine. Construct one with NewEngine,
// call Run, then Reset it onto the next set: the flat arenas, crossbars, and
// round scratch are all reused, so steady-state scheduling allocates only
// the returned Result. A Reset engine's output is bit-identical to a fresh
// engine's.
type Engine = padr.Engine

// NewEngine builds a reusable engine for a tree and an initial set.
func NewEngine(t *Tree, s *Set, opts ...Option) (*Engine, error) {
	return padr.New(t, s, opts...)
}

// RunBoth schedules an arbitrary (two-sided) communication set by
// decomposing it into its two orientations (paper §2.1) and running CSA on
// each. Both passes drive the same physical crossbars — the left-oriented
// half runs on the mirrored PE line and lands its connections on the
// reflected switches — so the second result's power report is the
// cumulative physical ledger for the whole set. Either result may be nil
// when that orientation is empty. The left result's schedule is in mirrored
// coordinates (PE i stands for physical PE N-1-i).
func RunBoth(t *Tree, s *Set, opts ...Option) (right, left *Result, err error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	switches := map[topology.Node]*xbar.Switch{}
	t.EachSwitch(func(n topology.Node) { switches[n] = xbar.NewSwitch() })
	r, lm := comm.Decompose(s)
	if r.Len() > 0 {
		right, err = Run(t, r, append(opts, padr.WithCrossbars(switches))...)
		if err != nil {
			return nil, nil, err
		}
	}
	if lm.Len() > 0 {
		left, err = Run(t, lm, append(opts, padr.WithReflectedCrossbars(switches))...)
		if err != nil {
			return right, nil, err
		}
	}
	return right, left, nil
}

// ConcurrentResult is the outcome of a goroutine-per-node run.
type ConcurrentResult = sim.Result

// ConcurrentOption configures RunConcurrent.
type ConcurrentOption = sim.Option

// RunConcurrent executes the same algorithm as Run but as a real
// message-passing system: one goroutine per switch and PE, one channel pair
// per tree link. Results are identical to Run by construction.
func RunConcurrent(t *Tree, s *Set, opts ...ConcurrentOption) (*ConcurrentResult, error) {
	return sim.Run(t, s, opts...)
}

// Fabric is a persistent concurrent CST: its goroutines and channels are
// built once and survive across runs, so repeated RunConcurrent-style
// executions skip the spawn/teardown cost. Close it when done.
type Fabric = sim.Fabric

// NewFabric spins up a persistent goroutine-per-node fabric.
func NewFabric(t *Tree, opts ...ConcurrentOption) *Fabric {
	return sim.NewFabric(t, opts...)
}

// BaselineOrder selects how the depth-ID baseline plays its rounds.
type BaselineOrder = baseline.Order

// Baseline round orders.
const (
	// OutermostFirst plays depth 0 upward (closest to PADR).
	OutermostFirst = baseline.OutermostFirst
	// InnermostFirst plays the deepest level first.
	InnermostFirst = baseline.InnermostFirst
	// Alternating interleaves shallow and deep levels (maximum churn).
	Alternating = baseline.Alternating
)

// BaselineResult is the outcome of a baseline run.
type BaselineResult = baseline.Result

// RunDepthID runs the ID-based prior-work reconstruction (Roy et al. [6]).
func RunDepthID(t *Tree, s *Set, order BaselineOrder, mode PowerMode) (*BaselineResult, error) {
	return baseline.DepthID(t, s, order, mode)
}

// RunGreedy runs the maximal-compatible-subset baseline; it accepts any
// right-oriented set, not only well-nested ones.
func RunGreedy(t *Tree, s *Set, mode PowerMode) (*BaselineResult, error) {
	return baseline.Greedy(t, s, mode)
}

// DataPlaneRecorder captures per-round switch configurations from a Run and
// replays tokens through them (Theorem 4 verification).
type DataPlaneRecorder = deliver.Recorder

// RoundConfig is one round's switch-configuration snapshot (as captured by
// DataPlaneRecorder or baseline results) — the input to the energy model.
type RoundConfig = deliver.RoundConfig

// RenderSet draws a set in the paper's Fig. 2 style.
func RenderSet(s *Set) string { return trace.RenderSet(s) }

// RenderGantt draws a schedule round by round over the PE line.
func RenderGantt(s *Schedule) string { return trace.RenderGantt(s) }

// RenderTree draws the tree with roles or live configurations (Fig. 1
// style).
var RenderTree = trace.RenderTree

// NewRunLogger builds a streaming round-by-round logger; attach its
// Observer() to Run.
var NewRunLogger = trace.NewLogger

// Bus is a segmentable bus (the motivating reconfigurable architecture).
type Bus = segbus.Bus

// NewBus builds a segmentable bus over n PEs.
func NewBus(n int) (*Bus, error) { return segbus.New(n) }

// BusTransfer is one segment-local transfer.
type BusTransfer = segbus.Transfer

// BusCycle is one bus cycle (at most one transfer per segment).
type BusCycle = segbus.Cycle

// RunBusProgram executes a multi-cycle bus program on a CST, holding
// crossbar state across cycles.
var RunBusProgram = segbus.RunProgram

// RandomBusProgram generates a random bus program for experiments.
var RandomBusProgram = segbus.RandomProgram

// Grid is an SRGA PE grid with one CST per row and per column.
type Grid = srga.Grid

// NewGrid builds an SRGA grid (rows, cols powers of two).
func NewGrid(rows, cols int) (*Grid, error) { return srga.New(rows, cols) }

// Comm2D is one grid communication.
type Comm2D = srga.Comm2D

// Grid workload generators.
var (
	// RandomPermutation draws a random full-permutation workload.
	RandomPermutation = srga.RandomPermutation
	// Transpose is the matrix-transpose workload on a square grid.
	Transpose = srga.Transpose
	// RowShift shifts every PE k columns within its row.
	RowShift = srga.RowShift
)

// EnergyModel prices a run beyond the paper's unit model: SetCost per
// established connection, HoldCost per connection·round held, IdleCost per
// switch·round.
type EnergyModel = energy.Model

// PaperEnergyModel is §2.3 verbatim: only establishment costs.
var PaperEnergyModel = energy.Paper

// EnergyBreakdown is a priced run.
type EnergyBreakdown = energy.Breakdown

// EvaluateEnergy prices per-round configuration snapshots under a model;
// it charges the minimal physical work realizing the trajectory.
var EvaluateEnergy = energy.Evaluate

// EnergyCrossover locates the HoldCost at which two trajectories' totals
// cross (the sensitivity of the paper's holding-is-free assumption).
var EnergyCrossover = energy.Crossover

// ConflictGraph is the share-a-directed-link conflict structure of an
// arbitrary right-oriented set.
type ConflictGraph = general.ConflictGraph

// Conflicts builds the conflict graph of a right-oriented (possibly
// crossing) set.
var Conflicts = general.Conflicts

// ScheduleFirstFit schedules an arbitrary right-oriented set greedily in
// source order (exact on well-nested sets).
var ScheduleFirstFit = general.FirstFit

// ScheduleExact finds a minimum-round schedule for an arbitrary
// right-oriented set by branch-and-bound, within a search-node budget; on
// budget exhaustion it returns the best valid schedule plus ErrBudget.
var ScheduleExact = general.Exact

// ErrBudget marks a possibly suboptimal ScheduleExact result.
var ErrBudget = general.ErrBudget

// ExactIncumbent adapts a ScheduleExact result so budget exhaustion keeps
// the valid incumbent schedule instead of surfacing as an error:
//
//	sch, exhausted, err := cst.ExactIncumbent(cst.ScheduleExact(tree, set, budget))
var ExactIncumbent = general.Incumbent

// Hybrid scheduling. ScheduleHybrid is the front end for arbitrary valid
// communication sets — crossing pairs, left-oriented spans, anything
// Validate accepts: it decomposes by orientation, peels maximal
// well-nested batches through the paper's scheduler, colors the crossing
// residual, and returns the composite plan (never worse than pure
// FirstFit coloring) with its replayed power bill.

// HybridPlan is a composite schedule plus its decomposition shape, round
// bound and power report.
type HybridPlan = hybrid.Plan

// HybridOption customizes ScheduleHybrid.
type HybridOption = hybrid.Option

// ScheduleHybrid plans an arbitrary valid set on t.
func ScheduleHybrid(t *Tree, s *Set, opts ...HybridOption) (*HybridPlan, error) {
	return hybrid.Schedule(t, s, opts...)
}

// WithHybridMode sets the power accounting mode for the plan's replay.
func WithHybridMode(m PowerMode) HybridOption { return hybrid.WithMode(m) }

// WithHybridExactBudget bounds the residual coloring's exact search.
func WithHybridExactBudget(n int) HybridOption { return hybrid.WithExactBudget(n) }

// WithHybridMaxBatches bounds the well-nested batches peeled per
// orientation.
func WithHybridMaxBatches(n int) HybridOption { return hybrid.WithMaxBatches(n) }

// WithHybridTracer streams the plan's replay trace (audit-compatible).
func WithHybridTracer(tr *Tracer) HybridOption { return hybrid.WithTracer(tr) }

// Hybrid strategy names reported in HybridPlan.Strategy.
const (
	HybridStrategyPeel     = hybrid.StrategyPeel
	HybridStrategyColoring = hybrid.StrategyColoring
)

// MinChangeResult is the outcome of the exact joint rounds/changes
// optimization.
type MinChangeResult = general.MinChangeResult

// MinChangeSchedule searches all width-round schedules for the fewest
// configuration changes (exponential; small instances only) — the tool
// behind experiment E15.
var MinChangeSchedule = general.MinChangeSchedule

// Serialization of runs for external tooling (plotting, CI dashboards).
var (
	// WriteScheduleJSON writes a schedule as indented JSON.
	WriteScheduleJSON = export.WriteScheduleJSON
	// UnmarshalSchedule reverses WriteScheduleJSON.
	UnmarshalSchedule = export.UnmarshalSchedule
	// WriteReportJSON writes a power report as indented JSON.
	WriteReportJSON = export.WriteReportJSON
	// WriteResultJSON writes a full PADR run as indented JSON.
	WriteResultJSON = export.WriteResultJSON
	// ScheduleCSV writes one line per communication: round,src,dst.
	ScheduleCSV = export.ScheduleCSV
	// ReportCSV writes one line per non-idle switch: node,units,alternations.
	ReportCSV = export.ReportCSV
)

// SelfRoute configures one circuit by Sidhu et al.'s header-driven
// self-routing — the historical predecessor the paper's algorithm
// supersedes; handles either orientation.
var SelfRoute = selfroute.Route

// SelfRouteAll self-routes an entire pairwise-disjoint set in one round.
var SelfRouteAll = selfroute.RouteAll

// DisjointSet reports whether no two communications share any tree link,
// even in opposite directions — the class self-routing handles.
var DisjointSet = selfroute.Disjoint

// OnlineSimulator runs the scheduler against dynamically arriving traffic.
type OnlineSimulator = online.Simulator

// OnlineOption configures an OnlineSimulator.
type OnlineOption = online.Option

// NewOnline builds an online simulator over a CST with n leaves.
func NewOnline(n int, opts ...OnlineOption) (*OnlineSimulator, error) {
	return online.New(n, opts...)
}

// OnlineStats summarizes an online run (latency, batches, power).
type OnlineStats = online.Stats

// TimingParams prices schedules in clock cycles (control wave per level,
// reconfiguration stall, transfer time).
type TimingParams = timing.Params

// DefaultTiming is a conventional operating point (1 cycle/level, 4-cycle
// reconfiguration stall, 1 transfer cycle).
var DefaultTiming = timing.Default

// TimingBreakdown is a cycle-priced run.
type TimingBreakdown = timing.Breakdown

// Makespan prices per-round configuration snapshots in clock cycles.
var Makespan = timing.Makespan

// TimingSpeedup compares two priced runs (>1 means the first is faster).
var TimingSpeedup = timing.Speedup

// ExperimentConfig tunes the reproduction experiments.
type ExperimentConfig = harness.Config

// Experiment is one registered paper-reproduction experiment.
type Experiment = harness.Experiment

// Experiments returns the registered experiments (E1..E9).
func Experiments() []Experiment { return harness.All() }

// ExperimentByID looks up one experiment.
var ExperimentByID = harness.ByID

// RunExperiments executes every registered experiment, writing markdown.
var RunExperiments = harness.RunAll

// RunExperiment executes one experiment with its standard header.
var RunExperiment = harness.RunOne

// Metrics is the dependency-free metrics registry (counters, gauges,
// fixed-bucket histograms; Prometheus text exposition). Thread one through
// engine options to watch runs live; see OBSERVABILITY.md.
type Metrics = obs.Registry

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics { return obs.New() }

// MetricsSnapshot is a point-in-time copy of a registry; Sub computes
// per-experiment deltas against an earlier snapshot.
type MetricsSnapshot = obs.Snapshot

// Tracer serializes structured engine events as JSONL (bounded ring plus
// optional stream); see OBSERVABILITY.md for the event schema.
type Tracer = obs.Tracer

// TraceEvent is one structured trace record.
type TraceEvent = obs.Event

// NewTracer builds a tracer; the writer may be nil (ring-only) and
// ringSize <= 0 selects the default ring capacity.
var NewTracer = obs.NewTracer

// Span tracing (see OBSERVABILITY.md §Spans): request-scoped timing trees
// recorded through a Tracer. SpanContext propagates across protocol hops
// (the X-CST-Trace header, wire trace blocks); the FlightRecorder pins
// the slowest and errored span trees for /trace/flight.
type (
	SpanContext    = obs.SpanContext
	SpanRecord     = obs.SpanRecord
	FlightRecorder = obs.FlightRecorder
)

// NewFlightRecorder builds a flight recorder pinning the k slowest and the
// k most recent errored traces (k <= 0 selects DefaultFlightK). Attach with
// Tracer.SetFlight.
var NewFlightRecorder = obs.NewFlightRecorder

// DefaultFlightK is the flight recorder's default pin count.
const DefaultFlightK = obs.DefaultFlightK

// MetricsServer is a live observability HTTP endpoint (/metrics, /healthz,
// /trace, /debug/pprof/).
type MetricsServer = obs.Server

// ServeMetrics binds addr and serves the observability endpoint in the
// background, returning once the listener is bound.
var ServeMetrics = obs.Serve

// MetricsHandler builds the observability http.Handler without binding a
// listener (for embedding in an existing server).
var MetricsHandler = obs.Handler

// WithMetrics publishes Run's cst_padr_* series to the registry.
func WithMetrics(r *Metrics) Option { return padr.WithRegistry(r) }

// WithTrace streams Run's structured events to the tracer.
func WithTrace(t *Tracer) Option { return padr.WithTracer(t) }

// WithConcurrentMetrics publishes RunConcurrent's cst_sim_* series.
func WithConcurrentMetrics(r *Metrics) ConcurrentOption { return sim.WithRegistry(r) }

// WithConcurrentTrace streams RunConcurrent's structured events.
func WithConcurrentTrace(t *Tracer) ConcurrentOption { return sim.WithTracer(t) }

// WithOnlineMetrics publishes the online dispatcher's cst_online_* series
// (and threads the registry into its inner engines).
func WithOnlineMetrics(r *Metrics) OnlineOption { return online.WithRegistry(r) }

// WithOnlineTrace streams the online dispatcher's batch events.
func WithOnlineTrace(t *Tracer) OnlineOption { return online.WithTracer(t) }

// MetricsSummary renders a per-engine metrics snapshot (latency quantiles,
// messages per round, changes per switch) as a markdown table.
var MetricsSummary = harness.MetricsSummary

// Power auditing. An Auditor consumes the tracer's event stream — live via
// Tracer.SetSink(auditor.Observe), or replayed from saved JSONL — and
// maintains a per-switch × per-round power ledger, runs the paper's
// theorems as monitors (round counts, per-switch spend, port alternations,
// word budgets), and attributes per-round latency along the critical path.
// See OBSERVABILITY.md and cmd/cstaudit.
type Auditor = audit.Auditor

// AuditConfig parameterizes an Auditor (registry, monitor limits,
// retention bounds); the zero value is usable.
type AuditConfig = audit.Config

// AuditLimits bounds the theorem monitors; the zero value selects adaptive
// defaults scaled to the audited tree size.
type AuditLimits = audit.Limits

// AuditViolation is one detected breach of a paper invariant; it
// implements error.
type AuditViolation = audit.Violation

// AuditReport is an immutable snapshot of an auditor's findings with
// markdown/HTML renderers.
type AuditReport = audit.Report

// AuditRun is the audited record of one engine run: the replayed ledger,
// critical paths, and any violations.
type AuditRun = audit.RunAudit

// NewAuditor builds an empty auditor.
func NewAuditor(cfg AuditConfig) *Auditor { return audit.New(cfg) }

// ReplayAudit feeds a saved trace through a fresh auditor and returns it
// flushed: every run in the trace has a verdict.
var ReplayAudit = audit.Replay

// ReadTraceJSONL decodes a JSONL trace stream (Tracer.WriteJSONL or the
// /trace endpoint) into events.
var ReadTraceJSONL = audit.ReadJSONL

// WritePerfetto renders a trace as Chrome trace-event JSON loadable in
// Perfetto or chrome://tracing: one process per engine, one track per tree
// level.
var WritePerfetto = audit.WritePerfetto

// Fault injection and hardening. A FaultInjector carries a deterministic
// fault plan (drop/corrupt/delay a control word, freeze a switch, fail a
// link for a window of rounds) that any of the three engines accepts; the
// hardened engines turn every induced failure into a typed *FaultError
// carrying the engine, round, and implicated node, matchable against the
// Err* sentinels with errors.Is. See DESIGN.md §9 for the fault model.

// FaultInjector is a deterministic, run-scoped fault plan shared by all
// engines. A nil injector is inert.
type FaultInjector = fault.Injector

// Fault is one entry in an injection plan.
type Fault = fault.Fault

// FaultKind selects a fault class.
type FaultKind = fault.Kind

// Injectable fault classes.
const (
	// FaultDropWord drops one control word in flight.
	FaultDropWord = fault.DropWord
	// FaultCorruptWord deterministically mutates one control word.
	FaultCorruptWord = fault.CorruptWord
	// FaultDelayWord stalls a word's delivery (concurrent fabric only).
	FaultDelayWord = fault.DelayWord
	// FaultFreezeSwitch makes a switch swallow Phase 2 words for a window.
	FaultFreezeSwitch = fault.FreezeSwitch
	// FaultFailLink drops every word on a link for a window of rounds.
	FaultFailLink = fault.FailLink
)

// FaultPhase1 is the Fault.Round value addressing the Phase 1 convergecast.
const FaultPhase1 = fault.Phase1

// FaultError is the typed failure a hardened engine returns when a fault
// kills a run; errors.As extracts it, errors.Is matches its sentinel Kind.
type FaultError = fault.Error

// StallReport is the per-node diagnosis attached to a watchdog deadline
// abort: the silent PEs and the maximal dark subtrees covering them.
type StallReport = fault.Stall

// Fault taxonomy sentinels (match with errors.Is).
var (
	// ErrCorruptWord marks a run killed by an invalid control word.
	ErrCorruptWord = fault.ErrCorruptWord
	// ErrWordLost marks a control word dropped in flight.
	ErrWordLost = fault.ErrWordLost
	// ErrSwitchDown marks a switch that stopped serving control words.
	ErrSwitchDown = fault.ErrSwitchDown
	// ErrLinkDown marks a link failed for a window of rounds.
	ErrLinkDown = fault.ErrLinkDown
	// ErrDeadline marks a run aborted by the watchdog or context deadline.
	ErrDeadline = fault.ErrDeadline
)

// FaultOption configures a FaultInjector.
type FaultOption = fault.Option

// NewFaultInjector builds an injector over a fault plan (the plan is
// copied).
func NewFaultInjector(faults []Fault, opts ...FaultOption) *FaultInjector {
	return fault.New(faults, opts...)
}

// WithFaultMetrics publishes the injector's cst_fault_* series.
func WithFaultMetrics(r *Metrics) FaultOption { return fault.WithRegistry(r) }

// RandomFaults draws a reproducible fault plan for chaos testing: count
// faults over a run of about the given round count, with DelayWord faults
// only when maxDelay > 0.
var RandomFaults = fault.Random

// WithFaults arms Run/NewEngine with an injector; failures come back as
// typed *FaultError values.
func WithFaults(in *FaultInjector) Option { return padr.WithFaults(in) }

// WithConcurrentFaults arms RunConcurrent/NewFabric with an injector and —
// unless overridden by WithWatchdog — a default per-wave watchdog that
// aborts a stalled run with ErrDeadline and a StallReport.
func WithConcurrentFaults(in *FaultInjector) ConcurrentOption {
	return sim.WithFaults(in)
}

// WithWatchdog sets the concurrent fabric's per-wave stall budget; zero
// keeps the default (armed only under injection), negative disables.
var WithWatchdog = sim.WithWatchdog

// WithOnlineFaults arms the online dispatcher's inner engines with an
// injector: a failed batch is retried on a fresh engine over restored
// crossbars and quarantined (with a typed error) when retries are spent.
func WithOnlineFaults(in *FaultInjector) OnlineOption { return online.WithFaults(in) }

// RunConcurrentContext is RunConcurrent under a context: cancellation or
// deadline expiry aborts the run with ErrDeadline and tears the circuits
// down cleanly.
func RunConcurrentContext(ctx context.Context, t *Tree, s *Set, opts ...ConcurrentOption) (*ConcurrentResult, error) {
	return sim.RunContext(ctx, t, s, opts...)
}

// Serving. A ServePool turns the online dispatcher into a long-running
// scheduling service: a worker per CST shard (each owning one simulator),
// bounded admission queues with 429-style backpressure, deadline- and
// size-triggered batch flushing, per-request deadlines reported through the
// fault taxonomy, and a graceful drain that answers every admitted request.
// See SERVING.md and cmd/cstserved.

// ServePool is the scheduling service: admission across a pool of shard
// workers, each goroutine-confined to its own online simulator.
type ServePool = serve.Pool

// ServeConfig parameterizes a ServePool (fabric size, shard count, queue
// depth, batch shape, deadlines, observability and fault plan); the zero
// value selects workable defaults.
type ServeConfig = serve.Config

// ServeResult is the terminal answer for one scheduling request, carrying
// the HTTP status mapping the service uses.
type ServeResult = serve.Result

// ServeStats is a point-in-time snapshot of a pool's admission state.
type ServeStats = serve.Stats

// ServeScheduleRequest is the POST /schedule payload.
type ServeScheduleRequest = serve.ScheduleRequest

// ServeScheduleSetRequest is the POST /schedule-set payload: a whole
// (possibly non-well-nested) communication set for the hybrid planner.
type ServeScheduleSetRequest = serve.ScheduleSetRequest

// ServePlanner answers whole-set scheduling requests through the hybrid
// pipeline; share one between the HTTP handler and the wire server.
type ServePlanner = serve.Planner

// ServePlannerConfig parameterizes a ServePlanner (exact budget, peel
// batches, set size cap, observability).
type ServePlannerConfig = serve.PlannerConfig

// ServeSetResult is the outcome of planning one set, HTTP-status mapped.
type ServeSetResult = serve.SetResult

// ServeSetComm is one communication inside a set request or planned round.
type ServeSetComm = serve.SetComm

// ServeScheduleDeltaRequest is the POST /schedule-delta payload: a
// session-scoped mutation (removes then adds) of a long-lived set served
// by the incremental scheduler.
type ServeScheduleDeltaRequest = serve.ScheduleDeltaRequest

// ServeDeltaResult is the terminal answer for one delta request: the
// re-scheduled session's rounds/width/size, whether a from-scratch
// fallback served it, and the HTTP status mapping.
type ServeDeltaResult = serve.DeltaResult

// NewServePool builds a scheduling pool; call Start to launch its workers
// and Drain to shut it down without losing admitted requests.
func NewServePool(cfg ServeConfig) (*ServePool, error) { return serve.New(cfg) }

// NewServePlanner builds a hybrid set planner for the serving surface.
var NewServePlanner = serve.NewPlanner

// NewServeHandler mounts the scheduling API (POST /schedule, POST
// /schedule-set, GET /statusz) next to the observability surface
// (/metrics, /healthz, /trace, /debug/pprof) on one http.Handler. A nil
// planner answers /schedule-set with 501.
var NewServeHandler = serve.Handler

// Serving error sentinels.
var (
	// ErrServeDraining rejects admissions after a drain has begun (503).
	ErrServeDraining = serve.ErrDraining
	// ErrServeQueueFull is the backpressure signal: every shard's
	// admission queue is at capacity (429).
	ErrServeQueueFull = serve.ErrQueueFull
)

// Wire protocol. The binary framing cstserved speaks on its -wire-addr
// TCP listener: persistent pipelined connections, varint-packed frames,
// and an allocation-free serve hot path. See SERVING.md and internal/wire
// for the frame layout.

// WireServer accepts wire-protocol connections and feeds their requests
// into a ServePool. Shut it down after the pool has drained.
type WireServer = serve.WireServer

// WireConfig parameterizes a WireServer (pipeline depth, observability).
type WireConfig = serve.WireConfig

// NewWireServer builds a wire-protocol front end over a pool; run it with
// Serve or ListenAndServe.
var NewWireServer = serve.NewWireServer

// WireClient is one persistent client connection with pipelined sends,
// for load generators and tests. Not safe for concurrent use.
type WireClient = wire.ClientConn

// WireRequest and WireResponse are the wire protocol's request and
// terminal-answer payloads; responses correlate to requests by ID.
type (
	WireRequest  = wire.Request
	WireResponse = wire.Response
)

// WireSetRequest and WireSetResponse are the whole-set frames: a
// communication set in, the hybrid plan's shape and power bill back.
type (
	WireSetRequest  = wire.SetRequest
	WireSetResponse = wire.SetResponse
)

// WireDial connects to a wire listener, performs the version handshake
// and returns a ready client connection.
var WireDial = wire.Dial

// NewRand is a convenience seeded source for the generator APIs.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
