// Package padr implements the paper's core contribution: the Configuration
// and Scheduling Algorithm (CSA) for oriented well-nested communication sets
// on the circuit switched tree, under the Power-Aware Dynamic
// Reconfiguration (PADR) technique (paper §3).
//
// Phase 1 floats constant-size control words up the tree: every PE reports
// [1,0] (source), [0,1] (destination) or [0,0]; every switch matches left
// sources against right destinations (Lemma 1 makes count-only matching
// sound) and stores C_S = [M, S_L−M, D_L, S_R, D_R−M].
//
// Phase 2 repeats for w rounds (w = the set's link width): control words
// flow down from the root telling every switch which halves of its parent
// link are in use this round and which pending leaf (x-th leftmost pending
// source / x-th rightmost pending destination, Definition 2) to hook up.
// Every switch always extends the *outermost* still-pending communication it
// is responsible for, which is what pins its total reconfiguration cost to
// O(1) (Lemmas 6–7, Theorem 8).
//
// The engine is a faithful sequential execution of the distributed
// algorithm: every decision at a switch uses only that switch's stored
// C_S word and the one control word received from its parent. Package sim
// re-runs the identical per-switch logic with one goroutine per node and
// channels for links, and must produce identical results.
package padr

import (
	"fmt"
	"time"

	"cst/internal/comm"
	"cst/internal/ctrl"
	"cst/internal/fault"
	"cst/internal/obs"
	"cst/internal/power"
	"cst/internal/sched"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// MaxRoundsSlack bounds the scheduling loop at width + MaxRoundsSlack
// rounds; exceeding it means the engine lost a communication and is
// reported as an error rather than an infinite loop.
const MaxRoundsSlack = 2

// Observer receives optional callbacks during a run; any field may be nil.
type Observer struct {
	// RoundStart fires before each Phase 2 round, 0-based.
	RoundStart func(round int)
	// WordSent fires for every Phase 2 control word sent from a switch to a
	// child (switch or PE).
	WordSent func(parent, child topology.Node, w ctrl.Down)
	// Configured fires after a switch establishes this round's connections.
	Configured func(u topology.Node, cfg xbar.Config)
	// RoundDone fires after each round with the communications performed.
	RoundDone func(round int, performed []comm.Comm)
}

// Option configures an Engine.
type Option func(*Engine)

// WithMode selects the power accounting mode. The default is
// power.Stateful (hold configurations across rounds; the PADR design
// point). power.Stateless tears every switch down each round — an ablation
// that reproduces the Θ(w)-units behaviour the paper attributes to
// round-by-round reconfiguration.
func WithMode(m power.Mode) Option {
	return func(e *Engine) { e.mode = m }
}

// WithObserver attaches trace callbacks.
func WithObserver(o Observer) Option {
	return func(e *Engine) { e.obs = o }
}

// Selection chooses when a switch starts its own matched pairs. The two
// rules expose a genuine tension in the paper (see DESIGN.md §6 and
// experiment E12): Greedy reproduces Theorem 5 exactly (always w rounds)
// but its per-switch change count grows slowly (≈ log N) on adversarial
// random well-nested sets; Conservative restores the strict Lemma 7
// sequence structure (O(1) changes on every input) but can need a few
// rounds beyond the width.
type Selection int

const (
	// Greedy (the default) is the literal Fig. 5 pseudocode: on a
	// [null,null] round a switch with matched pairs always starts one,
	// even while outer communications that will need the same ports are
	// pending. Time-optimal (Theorem 5 holds exactly); on the paper's
	// chain workloads also power-optimal with at most 2 changes per
	// switch.
	Greedy Selection = iota
	// Conservative starts a matched pair only when no outer communication
	// that needs the same switch ports (a left up-pass on l_i, a right
	// down-pass on r_o) is still pending — the paper's prose: "satisfy all
	// sources from its left subtree, then change configuration". This
	// keeps every port's demand sequence contiguous (Lemma 7's Q1/Q2
	// shape, hence O(1) changes per switch on every input) but may
	// schedule in more than w rounds.
	Conservative
)

// String names the selection rule.
func (s Selection) String() string {
	if s == Conservative {
		return "conservative"
	}
	return "greedy"
}

// WithSelection picks the matched-pair selection rule.
func WithSelection(s Selection) Option {
	return func(e *Engine) { e.sel = s }
}

// WithCrossbars makes the engine drive the caller's switches instead of
// fresh ones. Power meters on them keep accumulating, which is how a
// sequence of communication sets (e.g. successive segmentable-bus cycles)
// is billed across runs: configurations held from a previous run stay free.
// The map must contain one switch per internal node.
func WithCrossbars(switches map[topology.Node]*xbar.Switch) Option {
	return func(e *Engine) {
		for n, sw := range switches {
			if sw != nil && int(n) < len(e.switches) {
				e.switches[n] = sw
			}
		}
		e.ownXbars = false
	}
}

// WithSharedCrossbars is WithCrossbars for callers that already keep their
// switches in a dense slice indexed by node (len >= Switches()+1 with a
// non-nil entry per internal node; entry 0 unused). The slice is adopted by
// reference — no per-entry copying — which makes it the cheap option for
// pooled engines that swap crossbar views every dispatch.
func WithSharedCrossbars(switches []*xbar.Switch) Option {
	return func(e *Engine) {
		e.switches = switches
		e.ownXbars = false
	}
}

// WithReflectedCrossbars is WithCrossbars for a *mirrored* run: the engine
// schedules a mirrored (originally left-oriented) set, and every connection
// is applied to the reflected physical switch with left and right swapped.
// This bills a left-oriented pass to the same physical crossbars as the
// right-oriented pass, with physically correct attribution. Do not combine
// with the data-plane recorder: the recorded configurations are in physical
// coordinates while the schedule is in mirrored coordinates.
func WithReflectedCrossbars(switches map[topology.Node]*xbar.Switch) Option {
	return func(e *Engine) {
		WithCrossbars(switches)(e)
		e.reflected = true
	}
}

// WithReflection toggles the mirrored-run adapter independently of the
// crossbar source, so a pooled engine can flip orientation between Reset
// calls without re-copying its switches.
func WithReflection(on bool) Option {
	return func(e *Engine) { e.reflected = on }
}

// WithFaults arms deterministic fault injection: the engine consults in
// before every control-word exchange and either dies with a typed
// *fault.Error at the exact link/switch/round, or lets a silently corrupted
// word propagate until validation or the round-level pairing checks catch
// the inconsistency — in which case the failure is still wrapped typed,
// because the injector recorded that it fired this run. The sequential
// engine observes every fault synchronously (it cannot stall), and ignores
// DelayWord, which is a timing fault only the concurrent fabric feels.
// Injection disables Phase 2 subtree pruning so every link the physical
// fabric would traverse is actually exercised. A nil injector is inert.
func WithFaults(in *fault.Injector) Option {
	return func(e *Engine) { e.inj = in }
}

// Engine runs CSA on one communication set. Each run is one-shot, but the
// engine itself is reusable: Reset re-arms every internal arena for a new
// set on the same tree without reallocating, so pooled engines run
// allocation-free in steady state.
//
// All per-node state lives in flat slices indexed directly by
// topology.Node — the heap numbering is already dense (switches occupy
// 1..N-1, entry 0 unused), so a node IS its arena index and every hot-path
// map lookup of the original implementation becomes a bounds-checked load.
type Engine struct {
	tree      *topology.Tree
	set       *comm.Set
	mode      power.Mode
	obs       Observer
	sel       Selection
	reflected bool
	inj       *fault.Injector // nil = no fault injection

	// observability (all optional; nil means uninstrumented)
	reg        *obs.Registry
	tracer     *obs.Tracer
	span       obs.SpanContext // request span this run belongs to (zero = none)
	met        engineMetrics
	instr      bool // reg or tracer attached: take timestamps
	runStart   time.Time
	roundStart time.Time
	curRound   int // round being dispatched, -1 outside Phase 2
	unitsBase  int // cumulative meter baselines at prepare, for
	altBase    int // delta attribution on shared crossbars

	// Arenas indexed by topology.Node, len = tree.Leaves() (internal nodes
	// are 1..Leaves()-1; entry 0 unused).
	stored     []ctrl.Stored  // per-switch C_S state
	matchedSub []int          // sum of stored[v].M over v in subtree(u)
	switches   []*xbar.Switch // per-switch crossbar
	ownXbars   bool           // engine created the switches (Reset may Zero them)

	// Arenas indexed by PE number, len = set.N.
	dstOf    []int     // source PE -> destination PE, -1 if not a source
	leafRole []ctrl.Up // what each PE reports in Step 1.1
	leafDone []bool
	commPos  []int32 // source PE -> index in set.Comms, -1 if not a source

	// Delta-scheduling state (see delta.go). p1Stored/p1MatchedSub are the
	// pristine post-Phase-1 snapshot for the current set — the state Phase 2
	// consumes — kept across runs so Apply can recompute matches only along
	// dirty root paths and rebuild the live arrays with two memcopies.
	// widthScratch doubles as the persistent per-edge load table; loadHist
	// and curWidth maintain the set's width incrementally between full
	// WidthInto computations.
	p1Stored     []ctrl.Stored
	p1MatchedSub []int
	loadHist     []int // loadHist[v] = directed edges currently carrying v circuits
	curWidth     int   // max over widthScratch, maintained incrementally
	histDirty    bool  // loadHist/curWidth stale; rebuilt on the next Apply
	deltaOK      bool  // the engine holds a complete post-run state Apply can mutate
	dirtyMark    []int // epoch stamps over switch nodes, len = leaves
	dirtyEpoch   int
	dirtyList    []topology.Node

	ran       bool
	remaining int  // communications not yet performed
	prune     bool // active-path pruning enabled this run (no word observers)

	// per-round scratch
	roundSrcs    []int
	roundDsts    []bool // indexed by PE; entries listed in roundDstList
	roundDstList []int
	nestStack    []int // arm's well-nestedness scan stack, reused

	// commArena backs every round's performed slice for one run: rounds
	// partition the set, so set.Len() entries suffice for the whole run.
	commArena []comm.Comm
	commUsed  int

	// reusable scratch for Width and the wire-size encoders
	widthScratch []int
	encBuf       [ctrl.StoredWordBytes]byte

	// lightPrep backs RunRounds' prepared state so the rounds-only path
	// allocates nothing on a warm engine.
	lightPrep prepared

	// stats
	upWords    int
	downWords  int
	upBytes    int
	downBytes  int
	activeDown int
}

// Result is the outcome of a run.
type Result struct {
	// Schedule lists the communications performed per round; it has been
	// produced purely from which PEs were signalled, then checked against
	// the ground-truth pairing (Theorem 4).
	Schedule *sched.Schedule
	// Report is the power ledger (Theorem 8's subject).
	Report *power.Report
	// Width is the set's link width; Rounds == Width on success (Theorem 5).
	Width int
	// Rounds is the number of Phase 2 rounds executed.
	Rounds int
	// InitialStored is a snapshot of every switch's C_S after Phase 1,
	// indexed by node (entries 0 and >= Switches()+1 unused).
	InitialStored []ctrl.Stored
	// UpWords / DownWords count control words sent in Phase 1 / Phase 2.
	UpWords, DownWords int
	// UpBytes / DownBytes are the encoded sizes of those words.
	UpBytes, DownBytes int
	// ActiveDownWords counts Phase 2 words other than [null,null].
	ActiveDownWords int
	// MaxStoredBytes is the encoded size of the largest per-switch state —
	// constant by Theorem 5.
	MaxStoredBytes int
}

// New builds an engine for the given tree and set. The set must validate,
// be right oriented and well nested, and match the tree's leaf count.
func New(t *topology.Tree, s *comm.Set, opts ...Option) (*Engine, error) {
	n := t.Leaves()
	e := &Engine{
		tree:       t,
		stored:     make([]ctrl.Stored, n),
		matchedSub: make([]int, n),
		switches:   make([]*xbar.Switch, n),
		ownXbars:   true,
		dstOf:      make([]int, n),
		leafRole:   make([]ctrl.Up, n),
		leafDone:   make([]bool, n),
		commPos:    make([]int32, n),
		roundDsts:  make([]bool, n),
	}
	t.EachSwitch(func(u topology.Node) { e.switches[u] = xbar.NewSwitch() })
	if err := e.arm(s); err != nil {
		return nil, err
	}
	for _, o := range opts {
		o(e)
	}
	e.met = newEngineMetrics(e.reg)
	e.instr = e.reg != nil || e.tracer != nil
	e.curRound = -1
	return e, nil
}

// arm validates s and loads it into the engine's reusable arenas.
func (e *Engine) arm(s *comm.Set) error {
	if e.tree.Leaves() != s.N {
		return fmt.Errorf("padr: tree has %d leaves, set has N=%d", e.tree.Leaves(), s.N)
	}
	// Validate inline over the engine's PE arenas instead of through
	// Set.Validate/IsWellNested, whose per-call maps and role slices would
	// be the only allocations left on the Reset path.
	e.deltaOK = false
	for pe := range e.dstOf {
		e.dstOf[pe] = -1
		e.leafRole[pe] = ctrl.Up{}
		e.leafDone[pe] = false
		e.commPos[pe] = -1
	}
	for i, c := range s.Comms {
		if c.Src < 0 || c.Src >= s.N || c.Dst < 0 || c.Dst >= s.N {
			return fmt.Errorf("padr: %s out of range for N=%d", c, s.N)
		}
		if c.Src == c.Dst {
			return fmt.Errorf("padr: self loop at PE %d", c.Src)
		}
		if !c.RightOriented() {
			return fmt.Errorf("padr: set is not an oriented well-nested set: %s", s.String())
		}
		if e.leafRole[c.Src] != (ctrl.Up{}) {
			return fmt.Errorf("padr: PE %d appears in two communications", c.Src)
		}
		e.leafRole[c.Src] = ctrl.Up{S: 1}
		if e.leafRole[c.Dst] != (ctrl.Up{}) {
			return fmt.Errorf("padr: PE %d appears in two communications", c.Dst)
		}
		e.leafRole[c.Dst] = ctrl.Up{D: 1}
		e.dstOf[c.Src] = c.Dst
		e.commPos[c.Src] = int32(i)
	}
	if !e.scanNested() {
		return fmt.Errorf("padr: set is not an oriented well-nested set: %s", s.String())
	}
	if e.set == nil {
		e.set = &comm.Set{N: s.N}
	}
	e.set.N = s.N
	e.set.Comms = append(e.set.Comms[:0], s.Comms...)
	e.remaining = len(e.set.Comms)
	if cap(e.commArena) < len(e.set.Comms) {
		e.commArena = make([]comm.Comm, len(e.set.Comms))
	}
	e.commArena = e.commArena[:cap(e.commArena)]
	e.commUsed = 0
	return nil
}

// scanNested checks that the set currently loaded into the PE arenas is
// oriented well-nested: scan the PE line keeping a stack of open
// destinations; every destination must close the innermost open span.
func (e *Engine) scanNested() bool {
	stack := e.nestStack[:0]
	for pe := 0; pe < len(e.leafRole); pe++ {
		switch {
		case e.leafRole[pe].S == 1:
			stack = append(stack, e.dstOf[pe])
		case e.leafRole[pe].D == 1:
			if len(stack) == 0 || stack[len(stack)-1] != pe {
				e.nestStack = stack[:0]
				return false
			}
			stack = stack[:len(stack)-1]
		}
	}
	e.nestStack = stack[:0]
	return true
}

// Reset re-arms the engine for a new communication set on the same tree,
// reusing every arena, so a pooled engine schedules run after run without
// reallocating. Engine-owned crossbars are returned to factory state
// (configuration and meters), making a Reset engine observationally
// identical to a fresh New one; caller-provided crossbars (WithCrossbars /
// WithSharedCrossbars) are left untouched so cross-run billing keeps
// accumulating exactly as it would across fresh engines sharing them.
// Options passed here are applied on top of the engine's existing ones.
func (e *Engine) Reset(s *comm.Set, opts ...Option) error {
	if err := e.arm(s); err != nil {
		return err
	}
	for u := range e.stored {
		e.stored[u] = ctrl.Stored{}
		e.matchedSub[u] = 0
	}
	if e.ownXbars {
		for _, sw := range e.switches {
			if sw != nil {
				sw.Zero()
			}
		}
	}
	e.ran = false
	e.curRound = -1
	e.upWords, e.downWords, e.upBytes, e.downBytes, e.activeDown = 0, 0, 0, 0, 0
	e.roundSrcs = e.roundSrcs[:0]
	for _, pe := range e.roundDstList {
		e.roundDsts[pe] = false
	}
	e.roundDstList = e.roundDstList[:0]
	for _, o := range opts {
		o(e)
	}
	e.met = newEngineMetrics(e.reg)
	e.instr = e.reg != nil || e.tracer != nil
	return nil
}

// SetSpanContext attributes the engine's next run to a request trace: run
// events carry the trace id and a "padr.run" span is emitted when the run
// completes. The context is consumed by the run (cleared afterwards) so a
// Reset engine never mis-attributes a later run. Zero or unsampled
// contexts are inert. Not safe for concurrent use with a running engine.
func (e *Engine) SetSpanContext(ctx obs.SpanContext) { e.span = ctx }

// traceID is the hex trace id for event stamping ("" when untraced).
func (e *Engine) traceID() string {
	if !e.span.Valid() {
		return ""
	}
	return e.span.Trace.String()
}

// emitRunSpan closes out the "padr.run" span for a traced run and consumes
// the span context.
func (e *Engine) emitRunSpan(rounds int, errmsg string) {
	if e.tracer == nil || !e.span.Valid() {
		return
	}
	e.tracer.EmitSpan(obs.SpanRecord{
		Trace: e.span.Trace, Span: e.tracer.NewSpanID(), Parent: e.span.Span,
		Name: "padr.run", Engine: "padr",
		Start: e.runStart, End: time.Now(), N: rounds, Err: errmsg,
	})
	e.span = obs.SpanContext{}
}

// prepared holds the state computed by prepare (Phase 1 plus validation).
type prepared struct {
	width     int
	maxRounds int
	initial   []ctrl.Stored
	maxStored int
	schedule  *sched.Schedule
	round     int
}

// prepare runs Phase 1, snapshots the stored words and validates the root.
func (e *Engine) prepare() (*prepared, error) {
	p := new(prepared)
	if err := e.prepareInto(p, false); err != nil {
		return nil, err
	}
	return p, nil
}

// prepareInto is prepare with caller-owned state. In light mode the
// result-only artifacts — the initial-state snapshot and the schedule with
// its cloned set — are skipped, which together with a caller-pooled p
// makes the whole prepare allocation-free on a warm engine (RunRounds'
// contract).
func (e *Engine) prepareInto(p *prepared, light bool) error {
	if e.ran {
		return e.fail(fmt.Errorf("padr: engine is single-use; create a new one"))
	}
	e.ran = true
	e.deltaOK = false
	e.met.runs.Inc()
	e.met.comms.Add(int64(e.set.Len()))
	e.met.switches.Add(int64(e.tree.Switches()))
	if e.instr {
		e.runStart = time.Now()
		e.unitsBase, e.altBase = e.meterTotals()
	}
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{Type: "run.start", Engine: "padr", Round: -1, N: e.set.Len(), Mode: e.mode.String(), Trace: e.traceID()})
	}
	e.inj.BeginRun()
	// Pruning skips per-word and per-switch callbacks inside inert
	// subtrees, so it must stay off whenever anyone watches those events —
	// and whenever faults are armed, since a pruned walk would skip the
	// very links the plan targets.
	e.prune = e.obs.WordSent == nil && e.obs.Configured == nil && e.tracer == nil && e.inj == nil

	if e.widthScratch == nil {
		e.widthScratch = make([]int, e.tree.DirectedEdgeCount())
	}
	width, err := e.set.WidthInto(e.tree, e.widthScratch)
	if err != nil {
		return e.fail(err)
	}
	e.met.width.Set(int64(width))

	if err := e.phase1(); err != nil {
		return e.fail(err)
	}
	e.met.upWords.Add(int64(e.upWords))
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{
			Type: "phase1.done", Engine: "padr", Round: -1,
			N: e.upWords, DurNS: time.Since(e.runStart).Nanoseconds(), Width: width,
		})
	}

	var initial []ctrl.Stored
	if !light {
		initial = make([]ctrl.Stored, len(e.stored))
		copy(initial, e.stored)
	}
	maxStored := 0
	for u := 1; u < len(e.stored); u++ {
		sz, err := ctrl.EncodeStoredInto(e.encBuf[:], e.stored[u])
		if err != nil {
			return e.fail(fmt.Errorf("padr: switch %d state not encodable: %v", u, err))
		}
		if sz > maxStored {
			maxStored = sz
		}
	}
	// Sanity: after matching, nothing may remain unmatched at the root.
	if up := e.stored[e.tree.Root()].UpWord(); up.S != 0 || up.D != 0 {
		return e.fail(fmt.Errorf("padr: root still advertises %s upward; set is not schedulable", up))
	}
	// Retain the pristine post-Phase-1 state for delta scheduling: Phase 2
	// will drain stored/matchedSub in place, but Apply restores them from
	// this snapshot after patching only the dirty root paths.
	e.snapshotPhase1()

	maxRounds := width + MaxRoundsSlack
	if e.sel == Conservative {
		// The conservative rule may run past the width; bound the loop by
		// the trivial one-communication-per-round schedule instead.
		maxRounds = e.set.Len() + MaxRoundsSlack
	}
	p.width = width
	p.maxRounds = maxRounds
	p.initial = initial
	p.maxStored = maxStored
	p.round = 0
	if !light {
		// The schedule gets its own copy of the set: e.set is an arena that
		// the next Reset overwrites, while results must stay immutable.
		p.schedule = &sched.Schedule{Set: e.set.Clone()}
	} else {
		p.schedule = nil
	}
	return nil
}

// step executes one Phase 2 round against prepared state; done reports
// whether all communications have been performed (in which case no round
// ran).
func (e *Engine) step(p *prepared) (performed []comm.Comm, done bool, err error) {
	if !e.pendingWork() {
		return nil, true, nil
	}
	if p.round >= p.maxRounds {
		return nil, false, e.fail(fmt.Errorf("padr: exceeded %d rounds for a width-%d set; pending work remains", p.round, p.width))
	}
	e.curRound = p.round
	if e.instr {
		e.roundStart = time.Now()
	}
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{Type: "round.start", Engine: "padr", Round: p.round})
	}
	if e.obs.RoundStart != nil {
		e.obs.RoundStart(p.round)
	}
	if e.mode == power.Stateless {
		for _, sw := range e.switches {
			if sw != nil {
				sw.Reset()
			}
		}
	}
	performed, err = e.round()
	if err != nil {
		return nil, false, e.fail(fmt.Errorf("padr: round %d: %w", p.round, err))
	}
	if len(performed) == 0 {
		return nil, false, e.fail(fmt.Errorf("padr: round %d made no progress but work remains", p.round))
	}
	e.remaining -= len(performed)
	if p.schedule != nil {
		p.schedule.Rounds = append(p.schedule.Rounds, performed)
	}
	e.met.rounds.Inc()
	if e.instr {
		d := time.Since(e.roundStart)
		e.met.roundLatency.ObserveDuration(d)
		if e.tracer != nil {
			e.tracer.Emit(obs.Event{
				Type: "round.done", Engine: "padr", Round: p.round,
				N: len(performed), DurNS: d.Nanoseconds(),
			})
		}
	}
	if e.obs.RoundDone != nil {
		e.obs.RoundDone(p.round, performed)
	}
	p.round++
	e.curRound = -1
	return performed, false, nil
}

// finalize validates the completed schedule and assembles the result.
func (e *Engine) finalize(p *prepared) (*Result, error) {
	rounds := p.schedule.NumRounds()
	if e.sel == Greedy && rounds != p.width {
		return nil, e.fail(fmt.Errorf("padr: took %d rounds for a width-%d set (Theorem 5 violated)", rounds, p.width))
	}
	if e.instr {
		// Diff the cumulative switch meters against the prepare-time
		// baseline so shared crossbars (WithCrossbars) bill only this run.
		units, alts := e.meterTotals()
		e.met.units.Add(int64(units - e.unitsBase))
		e.met.alternations.Add(int64(alts - e.altBase))
		e.met.runLatency.ObserveDuration(time.Since(e.runStart))
		if e.tracer != nil {
			e.tracer.Emit(obs.Event{
				Type: "run.done", Engine: "padr", Round: -1,
				N: rounds, DurNS: time.Since(e.runStart).Nanoseconds(), Width: p.width,
				Trace: e.traceID(),
			})
		}
		e.emitRunSpan(rounds, "")
	}
	e.deltaOK = true
	return &Result{
		Schedule:        p.schedule,
		Report:          power.CollectSlice(e.algorithmName(), e.mode, rounds, e.tree, e.switches),
		Width:           p.width,
		Rounds:          rounds,
		InitialStored:   p.initial,
		UpWords:         e.upWords,
		DownWords:       e.downWords,
		UpBytes:         e.upBytes,
		DownBytes:       e.downBytes,
		ActiveDownWords: e.activeDown,
		MaxStoredBytes:  p.maxStored,
	}, nil
}

// Run executes Phase 1 once and Phase 2 until every communication has been
// performed, then returns the schedule, power report and statistics.
func (e *Engine) Run() (*Result, error) {
	p, err := e.prepare()
	if err != nil {
		return nil, err
	}
	for {
		_, done, err := e.step(p)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return e.finalize(p)
}

// RunRounds executes the schedule like Run but returns only the round
// count, skipping every result-only artifact: no initial-state snapshot,
// no schedule (and set clone), no power report. Theorem 5 validation and
// instrumented meter billing still happen, and shared crossbars' meters
// accumulate identically. On a warm (Reset) engine the whole prepare →
// rounds → validate cycle is allocation-free, which is what lets the
// online dispatcher — and the wire serving path above it — run whole
// batches without a single allocation. Callers that need the schedule or
// the per-run power report use Run.
func (e *Engine) RunRounds() (int, error) {
	p := &e.lightPrep
	*p = prepared{}
	if err := e.prepareInto(p, true); err != nil {
		return 0, err
	}
	return e.finishLight(p)
}

// finishLight drives Phase 2 to completion for a light (rounds-only) run,
// validates Theorem 5 and settles instrumented billing. Shared by RunRounds
// and ApplyRounds (delta.go).
func (e *Engine) finishLight(p *prepared) (int, error) {
	for {
		_, done, err := e.step(p)
		if err != nil {
			return 0, err
		}
		if done {
			break
		}
	}
	rounds := p.round
	if e.sel == Greedy && rounds != p.width {
		return 0, e.fail(fmt.Errorf("padr: took %d rounds for a width-%d set (Theorem 5 violated)", rounds, p.width))
	}
	if e.instr {
		units, alts := e.meterTotals()
		e.met.units.Add(int64(units - e.unitsBase))
		e.met.alternations.Add(int64(alts - e.altBase))
		e.met.runLatency.ObserveDuration(time.Since(e.runStart))
		if e.tracer != nil {
			e.tracer.Emit(obs.Event{
				Type: "run.done", Engine: "padr", Round: -1,
				N: rounds, DurNS: time.Since(e.runStart).Nanoseconds(), Width: p.width,
				Trace: e.traceID(),
			})
		}
		e.emitRunSpan(rounds, "")
	}
	e.deltaOK = true
	return rounds, nil
}

// Stepper drives Phase 2 one round at a time — for embedding the scheduler
// in an external simulation loop. Build with NewStepper, call Next until
// done, then Result.
type Stepper struct {
	e   *Engine
	p   *prepared
	res *Result
}

// NewStepper builds an engine and runs Phase 1 immediately.
func NewStepper(t *topology.Tree, s *comm.Set, opts ...Option) (*Stepper, error) {
	e, err := New(t, s, opts...)
	if err != nil {
		return nil, err
	}
	p, err := e.prepare()
	if err != nil {
		return nil, err
	}
	return &Stepper{e: e, p: p}, nil
}

// Width returns the set's link width (the target round count).
func (st *Stepper) Width() int { return st.p.width }

// Round returns the number of rounds executed so far.
func (st *Stepper) Round() int { return st.p.round }

// Next executes one round. done=true means all communications were already
// performed and no round ran.
func (st *Stepper) Next() (performed []comm.Comm, done bool, err error) {
	if st.res != nil {
		return nil, true, nil
	}
	return st.e.step(st.p)
}

// Result finishes any remaining rounds and returns the final result. It is
// idempotent.
func (st *Stepper) Result() (*Result, error) {
	if st.res != nil {
		return st.res, nil
	}
	for {
		_, done, err := st.e.step(st.p)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	res, err := st.e.finalize(st.p)
	if err != nil {
		return nil, err
	}
	st.res = res
	return res, nil
}

// algorithmName labels power reports: "padr" for the default rule, since
// Greedy is the literal paper algorithm, and "padr-conservative" otherwise.
func (e *Engine) algorithmName() string {
	if e.sel == Conservative {
		return "padr-conservative"
	}
	return "padr"
}

// phase1 distributes control information up the tree (Steps 1.1–1.3) and
// builds the matchedSub index that Phase 2's active-path pruning reads:
// matchedSub[u] is the number of still-unscheduled matched pairs anywhere in
// subtree(u). Bottom-up order guarantees both children's totals exist when a
// switch is visited, so each entry is computed (not accumulated) and a
// repeated phase1 on the same engine stays idempotent.
func (e *Engine) phase1() error {
	var ferr error
	e.tree.EachSwitchBottomUp(func(u topology.Node) {
		if ferr != nil {
			return
		}
		lc, rc := e.tree.Left(u), e.tree.Right(u)
		left, err := e.upWordFrom(lc)
		if err != nil {
			ferr = err
			return
		}
		right, err := e.upWordFrom(rc)
		if err != nil {
			ferr = err
			return
		}
		st := ctrl.Match(left, right)
		e.stored[u] = st
		m := st.M
		if e.tree.IsSwitch(lc) {
			m += e.matchedSub[lc]
		}
		if e.tree.IsSwitch(rc) {
			m += e.matchedSub[rc]
		}
		e.matchedSub[u] = m
	})
	return ferr
}

// upWordFrom returns the C_U word the given child sends its parent,
// counting the message and its encoded size. Under fault injection the link
// may lose or mutate the word; the word is then validated against the
// child's subtree (a C_U advertising more endpoints than the subtree has
// PEs is physically impossible), so link-local corruption dies here with a
// typed error instead of poisoning the matching above.
func (e *Engine) upWordFrom(child topology.Node) (ctrl.Up, error) {
	return e.upWordFromState(e.stored, child)
}

// upWordFromState is upWordFrom reading an explicit stored-word arena, so
// the delta path (delta.go) can recompute matches against the pristine
// Phase-1 snapshot with the identical fault-injection and accounting
// behaviour.
func (e *Engine) upWordFromState(stored []ctrl.Stored, child topology.Node) (ctrl.Up, error) {
	var up ctrl.Up
	if e.tree.IsLeaf(child) {
		up = e.leafRole[e.tree.PE(child)]
	} else {
		up = stored[child].UpWord()
	}
	if e.inj != nil {
		if e.inj.WordLost(child, fault.Phase1) {
			kind := fault.ErrWordLost
			if e.inj.LinkDownAt(child, fault.Phase1) {
				kind = fault.ErrLinkDown
			}
			return ctrl.Up{}, &fault.Error{Engine: "padr", Round: fault.Phase1, Node: child, Kind: kind,
				Detail: fmt.Errorf("convergecast word from node %d never arrived", child)}
		}
		up, _ = e.inj.CorruptUp(child, up)
		leaves := (e.tree.SubtreeNodes(child) + 1) / 2
		if up.S < 0 || up.D < 0 || up.S+up.D > leaves {
			return ctrl.Up{}, &fault.Error{Engine: "padr", Round: fault.Phase1, Node: child, Kind: fault.ErrCorruptWord,
				Detail: fmt.Errorf("up word %s impossible for a %d-leaf subtree", up, leaves)}
		}
	}
	e.upWords++
	if sz, err := ctrl.EncodeUpInto(e.encBuf[:], up); err == nil {
		e.upBytes += sz
	}
	return up, nil
}

// pendingWork reports whether any communication remains unperformed. The
// remaining counter is maintained by step, replacing the original O(N)
// sweep over every switch and PE.
func (e *Engine) pendingWork() bool { return e.remaining > 0 }

// round executes one Phase 2 round: words flow top-down from the root
// (which behaves as if it received [null,null]), every switch configures
// itself, and the signalled PEs perform their transfers.
func (e *Engine) round() ([]comm.Comm, error) {
	e.roundSrcs = e.roundSrcs[:0]
	for _, pe := range e.roundDstList {
		e.roundDsts[pe] = false
	}
	e.roundDstList = e.roundDstList[:0]
	if err := e.dispatch(e.tree.Root(), ctrl.Down{Use: ctrl.UseNone}); err != nil {
		return nil, err
	}
	// Pair up the signalled PEs using the ground-truth set and check the
	// algorithm signalled consistent endpoints (Theorem 4's claim is that
	// the established circuits connect true pairs).
	if len(e.roundSrcs) != len(e.roundDstList) {
		return nil, fmt.Errorf("signalled %d sources but %d destinations", len(e.roundSrcs), len(e.roundDstList))
	}
	if e.commUsed+len(e.roundSrcs) > len(e.commArena) {
		return nil, fmt.Errorf("signalled %d sources with only %d communications outstanding", len(e.roundSrcs), len(e.commArena)-e.commUsed)
	}
	base := e.commUsed
	for _, src := range e.roundSrcs {
		dst := e.dstOf[src]
		if dst < 0 {
			return nil, fmt.Errorf("PE %d signalled as source but sources nothing", src)
		}
		if !e.roundDsts[dst] {
			return nil, fmt.Errorf("source %d scheduled without its destination %d", src, dst)
		}
		e.commArena[e.commUsed] = comm.Comm{Src: src, Dst: dst}
		e.commUsed++
	}
	return e.commArena[base:e.commUsed:e.commUsed], nil
}

// dispatch delivers a Phase 2 word to a node. For a PE it performs Step
// 2.2's transfer bookkeeping; for a switch it runs CONFIGURE and recurses.
func (e *Engine) dispatch(n topology.Node, in ctrl.Down) error {
	if e.tree.IsLeaf(n) {
		return e.leaf(n, in)
	}
	if e.inj.FrozenAt(n, e.curRound) {
		// A frozen switch serves nothing; the sequential engine observes the
		// stall synchronously as a dead switch (the concurrent fabric
		// instead watches the wave vanish and reports ErrDeadline).
		return &fault.Error{Engine: "padr", Round: e.curRound, Node: n, Kind: fault.ErrSwitchDown,
			Detail: fmt.Errorf("switch stopped serving Phase 2 words")}
	}
	left, right, err := e.configure(n, in)
	if err != nil {
		return fmt.Errorf("switch %d: %w", n, err)
	}
	lc, rc := e.tree.Left(n), e.tree.Right(n)
	e.sendDown(n, lc, left)
	e.sendDown(n, rc, right)
	if err := e.descend(lc, left); err != nil {
		return err
	}
	return e.descend(rc, right)
}

// descend recurses into child c carrying word w — unless the whole subtree
// is provably inert this round, in which case the walk is pruned and the
// words the full recursion would have delivered are accounted arithmetically.
//
// Soundness: an idle ([null,null]) word entering a subtree with no matched
// pairs left (matchedSub == 0) reproduces itself all the way down — every
// switch below sees st.M == 0, starts nothing, changes no stored state and
// no crossbar, and every PE ignores [null,null]. Skipping the walk is
// therefore unobservable except through the per-word/per-switch callbacks,
// which e.prune guarantees nobody holds. Under the Conservative rule a
// switch with M > 0 may also decline to start (so matchedSub overestimates
// activity), but an overestimate only costs a missed prune, never a wrong
// one.
func (e *Engine) descend(c topology.Node, w ctrl.Down) error {
	if e.prune && w.Use == ctrl.UseNone && !e.tree.IsLeaf(c) && e.matchedSub[c] == 0 {
		e.skipSubtree(c)
		return nil
	}
	if e.inj != nil {
		if e.inj.WordLost(c, e.curRound) {
			kind := fault.ErrWordLost
			if e.inj.LinkDownAt(c, e.curRound) {
				kind = fault.ErrLinkDown
			}
			return &fault.Error{Engine: "padr", Round: e.curRound, Node: c, Kind: kind,
				Detail: fmt.Errorf("broadcast word into node %d never arrived", c)}
		}
		// A corrupted word is forwarded, not rejected here: the receiver's
		// validation (selector ranges, leaf role checks) or the round-end
		// pairing checks catch the inconsistency, and fail() attributes it.
		w, _ = e.inj.CorruptDown(c, e.curRound, w)
	}
	return e.dispatch(c, w)
}

// skipSubtree accounts for the [null,null] words a full dispatch below c
// would have sent: one per node strictly below c (the word into c itself
// was already counted by the caller's sendDown). All skipped words are
// idle, so ActiveDownWords is untouched.
func (e *Engine) skipSubtree(c topology.Node) {
	skipped := e.tree.SubtreeNodes(c) - 1
	e.downWords += skipped
	e.downBytes += skipped * ctrl.DownWordBytes
	e.met.downWords.Add(int64(skipped))
}

// sendDown accounts for one Phase 2 control word on the link parent→child.
func (e *Engine) sendDown(parent, child topology.Node, w ctrl.Down) {
	e.downWords++
	e.met.downWords.Inc()
	if w.Use != ctrl.UseNone {
		e.activeDown++
		e.met.activeDown.Inc()
	}
	if sz, err := ctrl.EncodeDownInto(e.encBuf[:], w); err == nil {
		e.downBytes += sz
	}
	if e.obs.WordSent != nil {
		e.obs.WordSent(parent, child, w)
	}
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{
			Type: "word.send", Engine: "padr", Round: e.curRound,
			Node: int(parent), Child: int(child), Word: w.String(),
		})
	}
}

// leaf handles a Phase 2 word arriving at a PE.
func (e *Engine) leaf(n topology.Node, in ctrl.Down) error {
	pe := e.tree.PE(n)
	switch in.Use {
	case ctrl.UseNone:
		return nil
	case ctrl.UseS:
		if e.leafRole[pe].S != 1 {
			return fmt.Errorf("PE %d signalled as source but is not one", pe)
		}
		if e.leafDone[pe] {
			return fmt.Errorf("source PE %d signalled twice", pe)
		}
		if in.Xs != 0 {
			return fmt.Errorf("source PE %d received selector xs=%d, want 0", pe, in.Xs)
		}
		e.leafDone[pe] = true
		e.roundSrcs = append(e.roundSrcs, pe)
		return nil
	case ctrl.UseD:
		if e.leafRole[pe].D != 1 {
			return fmt.Errorf("PE %d signalled as destination but is not one", pe)
		}
		if e.leafDone[pe] {
			return fmt.Errorf("destination PE %d signalled twice", pe)
		}
		if in.Xd != 0 {
			return fmt.Errorf("destination PE %d received selector xd=%d, want 0", pe, in.Xd)
		}
		e.leafDone[pe] = true
		e.roundDsts[pe] = true
		e.roundDstList = append(e.roundDstList, pe)
		return nil
	default:
		return fmt.Errorf("PE %d received [s,d], which only switches can serve", pe)
	}
}

// configure applies Step at switch u and fires the Configured observer.
// In a reflected run the connections land on the mirror-image physical
// switch with left and right swapped.
func (e *Engine) configure(u topology.Node, in ctrl.Down) (left, right ctrl.Down, err error) {
	phys := u
	if e.reflected {
		phys = e.tree.Reflect(u)
	}
	st := &e.stored[u]
	mBefore := st.M
	before := e.switches[phys].Config()
	if e.reflected {
		left, right, err = Step(st, sideSwapper{e.switches[phys]}, in, e.sel)
	} else {
		left, right, err = Step(st, e.switches[phys], in, e.sel)
	}
	if dm := mBefore - st.M; dm != 0 {
		// A matched pair started here: keep the subtree totals on the
		// root path exact so future rounds prune correctly.
		for v := u; v >= e.tree.Root(); v = e.tree.Parent(v) {
			e.matchedSub[v] -= dm
		}
	}
	if err != nil {
		return left, right, err
	}
	if e.obs.Configured != nil {
		e.obs.Configured(phys, e.switches[phys].Config())
	}
	// Trace only genuine reconfigurations: the events are the audit
	// trail for Theorem 8's O(1)-changes-per-switch claim.
	if e.tracer != nil {
		if after := e.switches[phys].Config(); after != before {
			e.tracer.Emit(obs.Event{
				Type: "switch.config", Engine: "padr", Round: e.curRound,
				Node: int(phys), Config: after.String(),
			})
		}
	}
	return left, right, nil
}

// sideSwapper applies connections with the left and right sides exchanged —
// the crossbar-level meaning of running on the mirrored PE line.
type sideSwapper struct {
	sw *xbar.Switch
}

// Connect implements xbar.Connector.
func (s sideSwapper) Connect(in, out xbar.Side) error {
	return s.sw.Connect(swapLR(in), swapLR(out))
}

func swapLR(s xbar.Side) xbar.Side {
	switch s {
	case xbar.L:
		return xbar.R
	case xbar.R:
		return xbar.L
	default:
		return s
	}
}

// Step is the paper's CONFIGURE procedure (Fig. 5) plus its mirrored
// [d,null] and [s,d] cases (omitted in the paper "for shortage of space").
// It consumes the word received from the parent, establishes this round's
// connections on the switch, updates the C_S state in place, and returns
// the words for the two children. It is exported so that the concurrent
// simulation (package sim) runs the byte-identical per-switch logic.
//
// Selector semantics (Definition 2): a child's pending upward sources are
// ordered left-to-right; indices 0..SL-1 live in the left subtree because a
// communication passing above u strictly contains every communication
// matched at u, so its source lies further left. Destinations mirror this
// with right-to-left ordering: indices 0..DR-1 live in the right subtree.
func Step(st *ctrl.Stored, sw xbar.Connector, in ctrl.Down, sel Selection) (left, right ctrl.Down, err error) {
	// startMatched reports whether this switch may begin one of its own
	// matched pairs now. A matched pair occupies l_i and r_o; under the
	// Conservative rule the switch first drains the outer communications
	// that need those ports (left up-passes on l_i, right down-passes on
	// r_o), which keeps each port's demand sequence contiguous (Lemma 7).
	startMatched := func() bool {
		if st.M == 0 {
			return false
		}
		if sel == Greedy {
			return true
		}
		return st.SL == 0 && st.DR == 0
	}

	switch in.Use {
	case ctrl.UseNone:
		// No demand from above. If pairs are matched here (and, under the
		// Conservative rule, the ports are not owed to outer
		// communications), schedule the outermost one: connect l_i→r_o and
		// direct the children to its endpoints. The pair's source is the
		// (SL)-th pending left source — exactly the number of still-pending
		// communications that pass above u, all of which contain it;
		// mirrored for the destination.
		if startMatched() {
			if err = sw.Connect(xbar.L, xbar.R); err != nil {
				return
			}
			st.M--
			left = ctrl.Down{Use: ctrl.UseS, Xs: st.SL}
			right = ctrl.Down{Use: ctrl.UseD, Xd: st.DR}
		}
		return

	case ctrl.UseS:
		// The parent needs our xs-th pending upward source.
		xs := in.Xs
		if xs < 0 || xs >= st.SL+st.SR {
			err = fmt.Errorf("selector xs=%d out of range (SL=%d SR=%d)", xs, st.SL, st.SR)
			return
		}
		if st.SL > xs {
			// Source in the left subtree: l_i→p_o. The right link is idle,
			// but r_o is not available for a matched pair (it would need
			// l_i, which is busy).
			if err = sw.Connect(xbar.L, xbar.P); err != nil {
				return
			}
			st.SL--
			left = ctrl.Down{Use: ctrl.UseS, Xs: xs}
			return
		}
		// Source in the right subtree: r_i→p_o; l_i and r_o are free, so u
		// can simultaneously start its own outermost matched pair (the
		// pseudocode's upgrade of C_{D-R} to [s,d]).
		if err = sw.Connect(xbar.R, xbar.P); err != nil {
			return
		}
		xsr := xs - st.SL
		st.SR--
		right = ctrl.Down{Use: ctrl.UseS, Xs: xsr}
		if startMatched() {
			if err = sw.Connect(xbar.L, xbar.R); err != nil {
				return
			}
			st.M--
			left = ctrl.Down{Use: ctrl.UseS, Xs: st.SL}
			right = ctrl.Down{Use: ctrl.UseSD, Xs: xsr, Xd: st.DR}
		}
		return

	case ctrl.UseD:
		// Mirror of UseS: the parent feeds our xd-th pending downward
		// destination.
		xd := in.Xd
		if xd < 0 || xd >= st.DR+st.DL {
			err = fmt.Errorf("selector xd=%d out of range (DR=%d DL=%d)", xd, st.DR, st.DL)
			return
		}
		if st.DR > xd {
			if err = sw.Connect(xbar.P, xbar.R); err != nil {
				return
			}
			st.DR--
			right = ctrl.Down{Use: ctrl.UseD, Xd: xd}
			return
		}
		if err = sw.Connect(xbar.P, xbar.L); err != nil {
			return
		}
		xdl := xd - st.DR
		st.DL--
		left = ctrl.Down{Use: ctrl.UseD, Xd: xdl}
		if startMatched() {
			if err = sw.Connect(xbar.L, xbar.R); err != nil {
				return
			}
			st.M--
			left = ctrl.Down{Use: ctrl.UseSD, Xs: st.SL, Xd: xdl}
			right = ctrl.Down{Use: ctrl.UseD, Xd: st.DR}
		}
		return

	case ctrl.UseSD:
		// Both halves of the parent link are in use: one pending source
		// goes up, one pending destination comes down.
		xs, xd := in.Xs, in.Xd
		if xs < 0 || xs >= st.SL+st.SR {
			err = fmt.Errorf("selector xs=%d out of range (SL=%d SR=%d)", xs, st.SL, st.SR)
			return
		}
		if xd < 0 || xd >= st.DR+st.DL {
			err = fmt.Errorf("selector xd=%d out of range (DR=%d DL=%d)", xd, st.DR, st.DL)
			return
		}
		srcLeft := st.SL > xs
		dstRight := st.DR > xd
		switch {
		case srcLeft && dstRight:
			if err = sw.Connect(xbar.L, xbar.P); err != nil {
				return
			}
			if err = sw.Connect(xbar.P, xbar.R); err != nil {
				return
			}
			st.SL--
			st.DR--
			left = ctrl.Down{Use: ctrl.UseS, Xs: xs}
			right = ctrl.Down{Use: ctrl.UseD, Xd: xd}
		case srcLeft && !dstRight:
			if err = sw.Connect(xbar.L, xbar.P); err != nil {
				return
			}
			if err = sw.Connect(xbar.P, xbar.L); err != nil {
				return
			}
			xdl := xd - st.DR
			st.SL--
			st.DL--
			left = ctrl.Down{Use: ctrl.UseSD, Xs: xs, Xd: xdl}
		case !srcLeft && dstRight:
			if err = sw.Connect(xbar.R, xbar.P); err != nil {
				return
			}
			if err = sw.Connect(xbar.P, xbar.R); err != nil {
				return
			}
			xsr := xs - st.SL
			st.SR--
			st.DR--
			right = ctrl.Down{Use: ctrl.UseSD, Xs: xsr, Xd: xd}
		default: // source from the right, destination to the left
			if err = sw.Connect(xbar.R, xbar.P); err != nil {
				return
			}
			if err = sw.Connect(xbar.P, xbar.L); err != nil {
				return
			}
			xsr := xs - st.SL
			xdl := xd - st.DR
			st.SR--
			st.DL--
			// l_i and r_o are both free: start the outermost matched pair
			// too, if permitted.
			if startMatched() {
				if err = sw.Connect(xbar.L, xbar.R); err != nil {
					return
				}
				st.M--
				left = ctrl.Down{Use: ctrl.UseSD, Xs: st.SL, Xd: xdl}
				right = ctrl.Down{Use: ctrl.UseSD, Xs: xsr, Xd: st.DR}
			} else {
				left = ctrl.Down{Use: ctrl.UseD, Xd: xdl}
				right = ctrl.Down{Use: ctrl.UseS, Xs: xsr}
			}
		}
		return

	default:
		err = fmt.Errorf("invalid control word %v", in)
		return
	}
}
