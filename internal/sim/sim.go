// Package sim executes the CSA algorithm as a truly concurrent
// message-passing system: one goroutine per switch and per PE, one pair of
// channels per tree link (an upward half for C_U words, a downward half for
// C_{D-L}/C_{D-R} words). No node shares memory with any other; every
// decision uses only the node's local state and the words on its links,
// exactly as the distributed algorithm prescribes (paper §2.2).
//
// Phase 1 is a single convergecast wave: leaves emit their role words and
// every switch matches its children's words (ctrl.Match) before forwarding
// upward. Each Phase 2 round is a broadcast wave: the driver injects
// [null,null] at the root, every switch runs the identical padr.Step
// transition, and the leaves report what they were told to a collector
// channel, which is how the driver detects the end of the round.
//
// The node goroutines live in a Fabric that persists across runs: spawning
// 2N-1 goroutines and 4N-2 channels is the dominant cost of short runs, so
// Run-heavy workloads build one Fabric and feed it set after set. Control
// ops (begin / end-run / shutdown) ride the same downward channels as the
// Phase 2 words, so every run is delimited by broadcast waves and the
// channel FIFO order is the only synchronization the protocol needs.
//
// # Fault tolerance
//
// The fabric survives a lossy tree. With fault injection armed (WithFaults)
// — or on a real deployment where a switch can wedge — a broadcast wave may
// simply never complete: a dropped word or a frozen switch leaves a whole
// subtree dark. The driver therefore supports deadlines (RunContext, plus a
// per-wave watchdog) and a run-abort protocol that returns the fabric to
// its parked state without tearing down a single goroutine:
//
//   - The end-of-run wave doubles as the abort wave. Control ops are the
//     management plane and are never subject to injected faults, so the
//     wave always reaches all 2N-1 nodes: switches forward it even while
//     still blocked mid-convergecast (their Phase 1 wait is a select over
//     both children's up-links and the parent's down-link).
//   - Every leaf acknowledges the end-of-run wave through the report
//     channel. The channel is a FIFO and the ack is the last thing a leaf
//     sends for a run, so once the driver has drained stats from every
//     switch and acks from every leaf, no stale traffic from the aborted
//     run can be in flight anywhere.
//   - An aborted Phase 1 can strand one matched up-word per link (sent but
//     never received). Every switch drains its children's up-channels when
//     the next begin wave arrives — provably before the children can send
//     their next word, because the children see that begin only after the
//     drain — and the driver does the same for the root's up-channel.
//
// A wave that misses its deadline surfaces as a typed *fault.Error wrapping
// fault.ErrDeadline, carrying a per-node stall report: which PEs never
// reported and the maximal fully-dark subtrees covering them (a frozen
// switch shows up as exactly its subtree).
//
// The sequential engine (package padr) and this simulation must produce
// identical schedules and identical power ledgers; tests assert this, and
// experiment E8 measures the message counts.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cst/internal/comm"
	"cst/internal/ctrl"
	"cst/internal/fault"
	"cst/internal/obs"
	"cst/internal/padr"
	"cst/internal/power"
	"cst/internal/sched"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// DefaultWatchdog bounds every broadcast wave when fault injection is armed
// and no explicit watchdog was configured: with faults in play a wave may
// legitimately never complete, and an unbounded wait would turn an injected
// fault into a real deadlock.
const DefaultWatchdog = 2 * time.Second

// Option configures a simulation.
type Option func(*config)

type config struct {
	reg      *obs.Registry
	tracer   *obs.Tracer
	inj      *fault.Injector
	watchdog time.Duration // 0 = default (only armed with faults), <0 = disabled
}

// WithRegistry publishes run metrics (rounds, per-round wall latency,
// channel messages, reconfiguration units) to the registry under the
// cst_sim_* names documented in OBSERVABILITY.md. A nil registry keeps the
// run uninstrumented at effectively zero cost.
func WithRegistry(r *obs.Registry) Option {
	return func(c *config) { c.reg = r }
}

// WithTracer emits structured JSONL events (goroutine lifecycle, Phase 1
// wave, per-round spans, channel sends) to the tracer. A nil tracer keeps
// the run silent.
func WithTracer(t *obs.Tracer) Option {
	return func(c *config) { c.tracer = t }
}

// WithFaults arms deterministic fault injection on the fabric's links and
// switches. Word faults apply on the data plane only (Phase 1/2 control
// words); the begin/end-run/shutdown waves model the driver's reliable
// management plane and always go through, which is what keeps every abort
// bounded. Arming faults also arms the DefaultWatchdog unless a watchdog
// was configured explicitly. A nil injector is inert.
func WithFaults(in *fault.Injector) Option {
	return func(c *config) { c.inj = in }
}

// WithWatchdog bounds every broadcast wave (Phase 1, and each Phase 2
// round) to d: a wave that fails to complete in time aborts the run and
// surfaces fault.ErrDeadline with a stall report. d < 0 disables the
// watchdog even under fault injection (the caller then bounds runs via
// RunContext, or accepts that a lost wave hangs).
func WithWatchdog(d time.Duration) Option {
	return func(c *config) { c.watchdog = d }
}

// metrics holds the pre-resolved metric handles for one fabric. The zero
// value (all-nil handles) is the disabled mode: every method call below
// no-ops on nil receivers, so the hot path carries only nil checks.
type metrics struct {
	runs, rounds, comms   *obs.Counter
	phase1, phase2        *obs.Counter
	reports, errs         *obs.Counter
	deadlines             *obs.Counter
	units, alternations   *obs.Counter
	switches              *obs.Counter
	goroutines            *obs.Gauge
	roundLatency, runTime *obs.Histogram
}

func newMetrics(r *obs.Registry) metrics {
	if r == nil {
		return metrics{}
	}
	return metrics{
		runs:         r.Counter("cst_sim_runs_total", "concurrent engine runs started"),
		rounds:       r.Counter("cst_sim_rounds_total", "Phase 2 rounds executed"),
		comms:        r.Counter("cst_sim_comms_scheduled_total", "communications performed"),
		phase1:       r.Counter("cst_sim_phase1_messages_total", "C_U words carried by channels"),
		phase2:       r.Counter("cst_sim_phase2_messages_total", "C_D words carried by channels"),
		reports:      r.Counter("cst_sim_leaf_reports_total", "leaf reports received by the driver"),
		errs:         r.Counter("cst_sim_errors_total", "failed runs"),
		deadlines:    r.Counter("cst_sim_deadline_aborts_total", "runs aborted by the watchdog or context deadline"),
		units:        r.Counter("cst_sim_power_units_total", "power units spent by switch crossbars"),
		alternations: r.Counter("cst_sim_alternations_total", "output-driver alternations on switch crossbars"),
		switches:     r.Counter("cst_sim_switches_total", "switch instances driven, summed over runs (for per-switch averages)"),
		goroutines:   r.Gauge("cst_sim_goroutines", "live node goroutines"),
		roundLatency: r.Histogram("cst_sim_round_latency_seconds", "wall latency of one Phase 2 broadcast wave", nil),
		runTime:      r.Histogram("cst_sim_run_duration_seconds", "wall latency of a whole run", nil),
	}
}

// Result is the outcome of a concurrent run.
type Result struct {
	// Schedule lists the communications performed per round.
	Schedule *sched.Schedule
	// Report is the power ledger, collected from the switch goroutines'
	// crossbars at the end-of-run wave.
	Report *power.Report
	// Width is the set's link width; Rounds == Width on success.
	Width, Rounds int
	// Phase1Messages counts C_U words carried by channels (one per link).
	Phase1Messages int
	// Phase2Messages counts C_{D-*} words carried by channels over all
	// rounds.
	Phase2Messages int
	// RoundLatencies is the wall-clock duration of every Phase 2 broadcast
	// wave, measured from injecting the root word to collecting the last
	// leaf report; len == Rounds.
	RoundLatencies []time.Duration
	// RoundMessages counts the C_{D-*} words carried by channels during
	// each round (the sum over rounds equals Phase2Messages); len ==
	// Rounds.
	RoundMessages []int
	// Goroutines is the number of node goroutines serving the run (2N-1).
	Goroutines int
}

// Control ops carried on the downward channels alongside Phase 2 words.
// Every op is a broadcast wave rooted at the driver: switches forward it to
// both children before acting on it, so the wave reaches all 2N-1 nodes in
// channel FIFO order with no extra synchronization. Ops are the management
// plane: fault injection never drops, corrupts or delays them.
const (
	opWord     uint8 = iota // deliver a Phase 2 control word
	opBegin                 // start a run: reset node state, run Phase 1
	opEndRun                // finish or abort a run: flush stats/acks, await next begin
	opShutdown              // exit the node goroutine
)

// downMsg is one element on a downward channel.
type downMsg struct {
	word ctrl.Down
	op   uint8
}

// leafReport is what a PE tells the driver at the end of each round, and —
// with ack set — how it acknowledges the end-of-run wave. The ack is the
// last element a leaf enqueues for a run, so draining n acks proves the
// report channel holds no stale traffic (FIFO).
type leafReport struct {
	pe   int
	word ctrl.Down
	err  error
	ack  bool
}

// nodeStats is what a switch goroutine hands back at the end-of-run wave.
type nodeStats struct {
	node topology.Node
	sw   *xbar.Switch
}

// Fabric is a persistent simulation substrate: the 2N-1 node goroutines and
// their channels are created once and serve any number of Run calls. A
// Fabric serializes Run calls internally (a second caller blocks, it does
// not corrupt the waves); Close is idempotent, safe to race with Run, and
// terminates the node goroutines before returning.
type Fabric struct {
	tree *topology.Tree
	cfg  config
	met  metrics

	// Channel fabric, indexed by node. up[node] carries the node's C_U word
	// to its parent; down[node] carries words and control ops from the
	// parent to the node.
	up   []chan ctrl.Up
	down []chan downMsg

	reports chan leafReport
	stats   chan nodeStats

	// Per-run state, written by the driver before the begin wave; node
	// goroutines read it only after receiving opBegin, which the channel
	// sends order after the writes.
	roles []ctrl.Up
	dstOf []int

	// switches collects each run's crossbars at the end-of-run wave,
	// indexed by node (reused across runs).
	switches []*xbar.Switch

	// reported marks, per wave, which PEs have reported — the input to the
	// stall report when a wave misses its deadline.
	reported []bool

	downSent  atomic.Int64 // cumulative C_{D-*} words across runs
	wg        sync.WaitGroup
	runMu     sync.Mutex // serializes Run, and orders Close after a run
	closed    atomic.Bool
	closeOnce sync.Once
}

// NewFabric spawns the node goroutines for t and returns the ready fabric.
func NewFabric(t *topology.Tree, opts ...Option) *Fabric {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	n := t.Leaves()
	f := &Fabric{
		tree:     t,
		cfg:      cfg,
		met:      newMetrics(cfg.reg),
		up:       make([]chan ctrl.Up, 2*n),
		down:     make([]chan downMsg, 2*n),
		reports:  make(chan leafReport, n),
		stats:    make(chan nodeStats, t.Switches()),
		roles:    make([]ctrl.Up, n),
		dstOf:    make([]int, n),
		switches: make([]*xbar.Switch, n),
		reported: make([]bool, n),
	}
	for node := 1; node < 2*n; node++ {
		f.up[node] = make(chan ctrl.Up, 1)
		f.down[node] = make(chan downMsg, 1)
	}
	for pe := 0; pe < n; pe++ {
		f.wg.Add(1)
		go f.leafLoop(pe)
	}
	t.EachSwitch(func(u topology.Node) {
		f.wg.Add(1)
		go f.switchLoop(u)
	})
	return f
}

// Close shuts the fabric down: the shutdown wave propagates to every node
// goroutine and Close returns once all of them have exited (so no goroutine
// or gauge decrement outlives the call). Close is idempotent and safe to
// call concurrently with Run: it waits for an in-flight run to finish
// before taking the fabric down.
func (f *Fabric) Close() {
	f.closeOnce.Do(func() {
		f.runMu.Lock()
		defer f.runMu.Unlock()
		f.closed.Store(true)
		f.down[f.tree.Root()] <- downMsg{op: opShutdown}
		f.wg.Wait()
	})
}

// watchdogFor resolves the effective per-wave deadline: an explicit
// positive setting wins, fault injection arms the default, and a negative
// setting disables the watchdog outright.
func (c *config) watchdogFor() time.Duration {
	switch {
	case c.watchdog > 0:
		return c.watchdog
	case c.watchdog < 0:
		return 0
	case c.inj != nil:
		return DefaultWatchdog
	default:
		return 0
	}
}

// Run executes the set on the fabric's tree, reusing the live goroutines.
func (f *Fabric) Run(s *comm.Set) (*Result, error) {
	return f.RunContext(context.Background(), s)
}

// RunContext is Run bounded by a context: if ctx is cancelled or its
// deadline passes mid-run, the run aborts (returning the fabric to its
// parked, reusable state) and a *fault.Error wrapping fault.ErrDeadline is
// returned. Independent of ctx, a configured (or fault-armed default)
// watchdog bounds every individual broadcast wave.
func (f *Fabric) RunContext(ctx context.Context, s *comm.Set) (*Result, error) {
	f.runMu.Lock()
	defer f.runMu.Unlock()
	t, met, cfg := f.tree, f.met, f.cfg
	if f.closed.Load() {
		met.errs.Inc()
		return nil, fmt.Errorf("sim: fabric is closed")
	}
	if t.Leaves() != s.N {
		met.errs.Inc()
		return nil, fmt.Errorf("sim: tree has %d leaves, set has N=%d", t.Leaves(), s.N)
	}
	if err := s.Validate(); err != nil {
		met.errs.Inc()
		return nil, err
	}
	if !s.IsWellNested() {
		met.errs.Inc()
		return nil, fmt.Errorf("sim: set is not an oriented well-nested set: %s", s.String())
	}
	width, err := s.Width(t)
	if err != nil {
		met.errs.Inc()
		return nil, err
	}
	met.runs.Inc()
	runStart := time.Now()
	if cfg.tracer != nil {
		cfg.tracer.Emit(obs.Event{Type: "run.start", Engine: "sim", Round: -1, N: s.Len(), Mode: power.Stateful.String()})
	}

	n := t.Leaves()
	for pe := 0; pe < n; pe++ {
		f.roles[pe] = ctrl.Up{}
		f.dstOf[pe] = -1
	}
	for _, c := range s.Comms {
		f.roles[c.Src] = ctrl.Up{S: 1}
		f.roles[c.Dst] = ctrl.Up{D: 1}
		f.dstOf[c.Src] = c.Dst
	}
	phase2Base := f.downSent.Load()
	cfg.inj.BeginRun()

	// Per-wave watchdog. One timer serves every wave; resetWD re-arms it at
	// the start of each wave so the deadline bounds a single wave, not the
	// whole run.
	watchdog := cfg.watchdogFor()
	var wd *time.Timer
	var wdC <-chan time.Time
	if watchdog > 0 {
		wd = time.NewTimer(watchdog)
		defer wd.Stop()
		wdC = wd.C
	}
	resetWD := func() {
		if wd == nil {
			return
		}
		if !wd.Stop() {
			select {
			case <-wd.C:
			default:
			}
		}
		wd.Reset(watchdog)
	}

	// Begin wave down, Phase 1 convergecast up. The root's up-channel was
	// drained at the end of the previous run, but drain again defensively:
	// a stale word here would corrupt the root check.
	select {
	case <-f.up[t.Root()]:
	default:
	}
	phase1Start := time.Now()
	f.down[t.Root()] <- downMsg{op: opBegin}
	resetWD()
	var rootUp ctrl.Up
	select {
	case rootUp = <-f.up[t.Root()]:
	case <-ctx.Done():
		return nil, f.abort(&fault.Error{Engine: "sim", Round: fault.Phase1, Kind: fault.ErrDeadline, Detail: ctx.Err()})
	case <-wdC:
		return nil, f.abort(&fault.Error{Engine: "sim", Round: fault.Phase1, Kind: fault.ErrDeadline,
			Detail: fmt.Errorf("phase 1 convergecast stalled (watchdog %v)", watchdog)})
	}
	met.phase1.Add(int64(2*n - 2))
	if cfg.tracer != nil {
		cfg.tracer.Emit(obs.Event{Type: "phase1.done", Engine: "sim", Round: -1,
			N: 2*n - 2, DurNS: time.Since(phase1Start).Nanoseconds(), Width: width})
	}
	if rootUp.S != 0 || rootUp.D != 0 {
		f.endRun()
		return nil, f.runFailed(fmt.Errorf("sim: root still advertises %s upward; set is not schedulable", rootUp), fault.Phase1)
	}

	// Phase 2: one broadcast wave per round.
	schedule := &sched.Schedule{Set: s.Clone()}
	remaining := s.Len()
	rounds := 0
	var roundLatencies []time.Duration
	var roundMessages []int
	prevDown := phase2Base
	var runErr error
	for remaining > 0 {
		if rounds >= width+padr.MaxRoundsSlack {
			runErr = fmt.Errorf("sim: exceeded %d rounds for a width-%d set", rounds, width)
			break
		}
		roundStart := time.Now()
		if cfg.tracer != nil {
			cfg.tracer.Emit(obs.Event{Type: "round.start", Engine: "sim", Round: rounds})
		}
		// The driver is the root's parent: the root link is subject to the
		// same word faults as any other link. A lost root word stalls the
		// entire tree and the watchdog reports every PE dark.
		rootWord := ctrl.Down{Use: ctrl.UseNone}
		send := true
		if cfg.inj != nil {
			if cfg.inj.WordLost(t.Root(), rounds) {
				send = false
			} else {
				rootWord, _ = cfg.inj.CorruptDown(t.Root(), rounds, rootWord)
			}
		}
		resetWD()
		if send {
			f.down[t.Root()] <- downMsg{word: rootWord}
		}
		for pe := 0; pe < n; pe++ {
			f.reported[pe] = false
		}
		var srcs []int
		dsts := map[int]bool{}
		stalled := false
		for got := 0; got < n && !stalled; {
			select {
			case rep := <-f.reports:
				met.reports.Inc()
				if rep.ack {
					// Impossible by the FIFO/ack argument; tolerate rather
					// than corrupt the wave count.
					continue
				}
				got++
				f.reported[rep.pe] = true
				if rep.err != nil {
					runErr = fmt.Errorf("sim: round %d: %w", rounds, rep.err)
					continue
				}
				switch rep.word.Use {
				case ctrl.UseS:
					srcs = append(srcs, rep.pe)
				case ctrl.UseD:
					dsts[rep.pe] = true
				}
			case <-ctx.Done():
				runErr = &fault.Error{Engine: "sim", Round: rounds, Kind: fault.ErrDeadline, Detail: ctx.Err()}
				stalled = true
			case <-wdC:
				stall := fault.NewStall(t, f.reported)
				fe := &fault.Error{Engine: "sim", Round: rounds, Kind: fault.ErrDeadline, Detail: stall}
				if len(stall.DarkSubtrees) > 0 {
					// A single dark frontier node is the prime suspect (a
					// frozen switch shows up as exactly its subtree); pin it
					// so the audit trail names the switch, not just the wave.
					fe.Node = stall.DarkSubtrees[0]
				}
				runErr = fe
				stalled = true
			}
		}
		if stalled {
			return nil, f.abort(runErr.(*fault.Error))
		}
		// All n leaf reports are in, so every switch has counted and
		// forwarded both of this round's words: the wave is complete and
		// the shared counter is quiescent.
		elapsed := time.Since(roundStart)
		nowDown := f.downSent.Load()
		waveMsgs := int(nowDown - prevDown)
		prevDown = nowDown
		if runErr != nil {
			break
		}
		performed := make([]comm.Comm, 0, len(srcs))
		for _, src := range srcs {
			dst := f.dstOf[src]
			if dst < 0 || !dsts[dst] {
				runErr = fmt.Errorf("sim: round %d: source %d scheduled without its destination", rounds, src)
				break
			}
			performed = append(performed, comm.Comm{Src: src, Dst: dst})
		}
		if runErr != nil {
			break
		}
		if len(performed) != len(dsts) {
			runErr = fmt.Errorf("sim: round %d: %d sources vs %d destinations", rounds, len(performed), len(dsts))
			break
		}
		if len(performed) == 0 {
			runErr = fmt.Errorf("sim: round %d made no progress", rounds)
			break
		}
		schedule.Rounds = append(schedule.Rounds, performed)
		remaining -= len(performed)
		roundLatencies = append(roundLatencies, elapsed)
		roundMessages = append(roundMessages, waveMsgs)
		met.rounds.Inc()
		met.comms.Add(int64(len(performed)))
		met.phase2.Add(int64(waveMsgs))
		met.roundLatency.ObserveDuration(elapsed)
		if cfg.tracer != nil {
			cfg.tracer.Emit(obs.Event{Type: "round.done", Engine: "sim", Round: rounds,
				N: len(performed), DurNS: elapsed.Nanoseconds()})
		}
		rounds++
	}

	// End-of-run wave: switches flush their crossbars to the stats channel
	// and return to the top of their loop, ready for the next begin wave.
	switches := f.endRun()

	if runErr != nil {
		return nil, f.runFailed(runErr, rounds)
	}
	if rounds != width {
		return nil, f.runFailed(fmt.Errorf("sim: took %d rounds for a width-%d set", rounds, width), rounds)
	}
	report := power.Collect("padr-sim", power.Stateful, rounds, t, switches)
	met.switches.Add(int64(len(report.Switches)))
	for _, sw := range report.Switches {
		met.units.Add(int64(sw.Units))
		met.alternations.Add(int64(sw.Alternations))
	}
	met.runTime.ObserveDuration(time.Since(runStart))
	if cfg.tracer != nil {
		cfg.tracer.Emit(obs.Event{Type: "run.done", Engine: "sim", Round: rounds,
			N: s.Len(), DurNS: time.Since(runStart).Nanoseconds(), Width: width})
	}
	return &Result{
		Schedule:       schedule,
		Report:         report,
		Width:          width,
		Rounds:         rounds,
		Phase1Messages: 2*n - 1 - 1, // every non-root node sent one C_U word
		Phase2Messages: int(f.downSent.Load() - phase2Base),
		RoundLatencies: roundLatencies,
		RoundMessages:  roundMessages,
		Goroutines:     2*n - 1,
	}, nil
}

// runFailed routes a run error through the metrics/tracer, attributing it
// to fault injection (typed, with the dying round) when the injector fired.
func (f *Fabric) runFailed(err error, round int) error {
	if f.cfg.inj.Fired() {
		f.cfg.inj.Observe()
		var fe *fault.Error
		if !errors.As(err, &fe) {
			err = &fault.Error{Engine: "sim", Round: round, Kind: fault.ErrCorruptWord, Detail: err}
		}
	}
	f.met.errs.Inc()
	if errors.Is(err, fault.ErrDeadline) {
		f.met.deadlines.Inc()
	}
	if f.cfg.tracer != nil {
		ev := obs.Event{Type: "run.error", Engine: "sim", Round: round, Err: err.Error()}
		var fe *fault.Error
		if errors.As(err, &fe) {
			ev.Round = fe.Round
			ev.Node = int(fe.Node)
		}
		f.cfg.tracer.Emit(ev)
	}
	return err
}

// abort recovers the fabric from a stalled wave and reports the failure.
// The end-of-run wave doubles as the abort wave: control ops always go
// through (they are never fault-injected) and every node — including a
// switch still blocked in its Phase 1 select — forwards the op before
// parking, so the wave is guaranteed to terminate.
func (f *Fabric) abort(ferr *fault.Error) error {
	f.endRun()
	f.cfg.inj.Observe()
	f.met.errs.Inc()
	f.met.deadlines.Inc()
	if f.cfg.tracer != nil {
		f.cfg.tracer.Emit(obs.Event{Type: "run.error", Engine: "sim", Round: ferr.Round,
			Node: int(ferr.Node), Err: ferr.Error()})
	}
	return ferr
}

// endRun broadcasts the end-of-run wave and gathers every switch's crossbar
// into f.switches plus one ack from every leaf. After it returns, every
// node goroutine is parked at the top of its loop, the crossbars are safe
// for the driver to read (the stats handoff orders the reads after the
// goroutines' last writes), and the report channel is empty: an ack is the
// last element a leaf enqueues for a run, the channel is FIFO, so draining
// until the n-th ack provably discards every stale report of an aborted
// wave. Any up-word stranded on the root link by an aborted Phase 1 is
// drained here; interior links are drained by the switches at the next
// begin wave.
func (f *Fabric) endRun() []*xbar.Switch {
	f.down[f.tree.Root()] <- downMsg{op: opEndRun}
	for i := 0; i < f.tree.Switches(); i++ {
		st := <-f.stats
		f.switches[st.node] = st.sw
	}
	for acks := 0; acks < f.tree.Leaves(); {
		if rep := <-f.reports; rep.ack {
			acks++
		}
	}
	select {
	case <-f.up[f.tree.Root()]:
	default:
	}
	return f.switches
}

// Run executes the set on the tree with one goroutine per node, building a
// throwaway Fabric for the single run.
func Run(t *topology.Tree, s *comm.Set, opts ...Option) (*Result, error) {
	f := NewFabric(t, opts...)
	defer f.Close()
	return f.Run(s)
}

// RunContext is Run with a context bound, on a throwaway Fabric.
func RunContext(ctx context.Context, t *topology.Tree, s *comm.Set, opts ...Option) (*Result, error) {
	f := NewFabric(t, opts...)
	defer f.Close()
	return f.RunContext(ctx, s)
}

// leafLoop is the persistent PE goroutine: per run, one role word up, then
// one report per round until the end-of-run wave, which it acknowledges.
func (f *Fabric) leafLoop(pe int) {
	defer f.wg.Done()
	node := f.tree.Leaf(pe)
	upCh, downCh := f.up[node], f.down[node]
	tracer, inj := f.cfg.tracer, f.cfg.inj
	f.met.goroutines.Add(1)
	if tracer != nil {
		tracer.Emit(obs.Event{Type: "goroutine.start", Engine: "sim", Round: -1, Node: int(node), PE: pe})
	}
	defer func() {
		f.met.goroutines.Add(-1)
		if tracer != nil {
			tracer.Emit(obs.Event{Type: "goroutine.exit", Engine: "sim", Round: -1, Node: int(node), PE: pe})
		}
	}()
	for {
		msg := <-downCh
		if msg.op == opShutdown {
			return
		}
		if msg.op != opBegin {
			continue
		}
		role := f.roles[pe]
		if inj != nil && inj.WordLost(node, fault.Phase1) {
			// Role word lost: the parent's convergecast stalls and the
			// driver's watchdog turns it into ErrDeadline.
		} else {
			up := role
			if inj != nil {
				up, _ = inj.CorruptUp(node, up)
			}
			upCh <- up
		}
		done := false
		// The leaf's round counter tracks words it actually received; an
		// upstream fault can make it lag the driver's, which only skews
		// which local round later faults key on — determinism is unaffected
		// because the counter is message-driven, not clock-driven.
		round := 0
		for {
			msg := <-downCh
			if msg.op == opShutdown {
				return
			}
			if msg.op == opEndRun {
				f.reports <- leafReport{pe: pe, ack: true}
				break
			}
			if inj != nil {
				if d := inj.DelayAt(node, round); d > 0 {
					time.Sleep(d)
				}
			}
			word := msg.word
			rep := leafReport{pe: pe, word: word}
			switch word.Use {
			case ctrl.UseNone:
				// idle round
			case ctrl.UseS:
				if role.S != 1 || done || word.Xs != 0 {
					rep.err = fmt.Errorf("PE %d: bad source signal %v (role %v, done %v)", pe, word, role, done)
				}
				done = true
			case ctrl.UseD:
				if role.D != 1 || done || word.Xd != 0 {
					rep.err = fmt.Errorf("PE %d: bad destination signal %v (role %v, done %v)", pe, word, role, done)
				}
				done = true
			default:
				rep.err = fmt.Errorf("PE %d: received %v, which only switches can serve", pe, word)
			}
			f.reports <- rep
			round++
		}
	}
}

// switchLoop is the persistent switch goroutine: per run, match once in
// Phase 1, then apply padr.Step to every downward word until the
// end-of-run wave, then flush the crossbar to the stats channel.
func (f *Fabric) switchLoop(u topology.Node) {
	defer f.wg.Done()
	lc, rc := topology.Node(2*u), topology.Node(2*u+1)
	leftUp, rightUp, parentUp := f.up[lc], f.up[rc], f.up[u]
	parentDown, leftDown, rightDown := f.down[u], f.down[lc], f.down[rc]
	tracer, inj := f.cfg.tracer, f.cfg.inj
	f.met.goroutines.Add(1)
	if tracer != nil {
		tracer.Emit(obs.Event{Type: "goroutine.start", Engine: "sim", Round: -1, Node: int(u), PE: -1})
	}
	defer func() {
		f.met.goroutines.Add(-1)
		if tracer != nil {
			tracer.Emit(obs.Event{Type: "goroutine.exit", Engine: "sim", Round: -1, Node: int(u), PE: -1})
		}
	}()
	sw := xbar.NewSwitch()
	for {
		msg := <-parentDown
		if msg.op == opShutdown {
			leftDown <- msg
			rightDown <- msg
			return
		}
		if msg.op != opBegin {
			continue
		}
		// A recycled crossbar must be indistinguishable from the fresh one a
		// dedicated per-run goroutine would have built.
		sw.Zero()
		// An aborted previous run can have stranded one up-word per child
		// link (sent, never received). Drain before forwarding the begin
		// wave: the children cannot send this run's words until they see
		// the begin, which happens strictly after this drain.
		select {
		case <-leftUp:
		default:
		}
		select {
		case <-rightUp:
		default:
		}
		leftDown <- msg
		rightDown <- msg

		// Phase 1 (Steps 1.2–1.3): receive both children's words, match,
		// send the remainder upward. The two receives may complete in either
		// order; each channel carries exactly one Phase 1 word per run. The
		// wait also selects on the parent's down-link so an abort wave (the
		// driver gave up on a convergecast a fault killed below us) can
		// unwind the run instead of deadlocking against it.
		var lw, rw ctrl.Up
		haveL, haveR, unwound := false, false, false
		for !unwound && !(haveL && haveR) {
			select {
			case lw = <-leftUp:
				haveL = true
			case rw = <-rightUp:
				haveR = true
			case m := <-parentDown:
				// Mid-convergecast only control ops can arrive (the driver
				// sends no Phase 2 word before the root's up-word).
				leftDown <- m
				rightDown <- m
				f.stats <- nodeStats{node: u, sw: sw}
				if m.op == opShutdown {
					return
				}
				unwound = true
			}
		}
		if unwound {
			continue
		}
		st := ctrl.Match(lw, rw)
		if inj != nil && inj.WordLost(u, fault.Phase1) {
			// Our matched word vanishes on the parent link: the convergecast
			// above us never completes and the abort wave unwinds the run.
		} else {
			up := st.UpWord()
			if inj != nil {
				up, _ = inj.CorruptUp(u, up)
			}
			parentUp <- up
		}

		// Phase 2: every downward word triggers one Step and two forwards,
		// until the end-of-run (or shutdown) wave unwinds the run.
		round := 0
		for {
			msg := <-parentDown
			if msg.op != opWord {
				leftDown <- msg
				rightDown <- msg
				f.stats <- nodeStats{node: u, sw: sw}
				if msg.op == opShutdown {
					return
				}
				break
			}
			if inj != nil {
				if d := inj.DelayAt(u, round); d > 0 {
					time.Sleep(d)
				}
				if inj.FrozenAt(u, round) {
					// Frozen: swallow the word — no Step, no forwards. The
					// subtree goes dark and the driver's watchdog reports it
					// as exactly this subtree. Control ops above still pass,
					// so the abort wave gets through.
					round++
					continue
				}
			}
			before := sw.Config()
			left, right, err := padr.Step(&st, sw, msg.word, padr.Greedy)
			if err != nil {
				// A corrupted word must not wedge the wave: forward idle
				// words so every leaf still reports, and surface the failure
				// through the leaf report of some scheduled PE (the driver
				// also detects the stall as "no progress").
				left, right = ctrl.Down{Use: ctrl.UseNone}, ctrl.Down{Use: ctrl.UseNone}
			}
			if tracer != nil {
				if after := sw.Config(); after != before {
					tracer.Emit(obs.Event{Type: "switch.config", Engine: "sim", Round: round,
						Node: int(u), Config: after.String()})
				}
				tracer.Emit(obs.Event{Type: "word.send", Engine: "sim", Round: round,
					Node: int(u), Child: int(lc), Word: left.String()})
				tracer.Emit(obs.Event{Type: "word.send", Engine: "sim", Round: round,
					Node: int(u), Child: int(rc), Word: right.String()})
			}
			// Count the round's words before sending them. A leaf reports
			// only after its word arrives, so once the driver holds all n
			// reports every switch's count for the round is visible, and
			// none can spill into the next round's tally.
			sendL := inj == nil || !inj.WordLost(lc, round)
			sendR := inj == nil || !inj.WordLost(rc, round)
			sent := int64(0)
			if sendL {
				sent++
			}
			if sendR {
				sent++
			}
			f.downSent.Add(sent)
			if sendL {
				if inj != nil {
					left, _ = inj.CorruptDown(lc, round, left)
				}
				leftDown <- downMsg{word: left}
			}
			if sendR {
				if inj != nil {
					right, _ = inj.CorruptDown(rc, round, right)
				}
				rightDown <- downMsg{word: right}
			}
			round++
		}
	}
}
