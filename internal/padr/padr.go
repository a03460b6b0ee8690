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
//
// A run costs what its set touches, not N. Phase 1 matches only the
// switches on the set's root paths: every other switch roots a subtree with
// no endpoint, which floats [0,0] up and only ever receives [null,null], so
// its words are counted, not computed. Phase 2 prunes every subtree with no
// matched pair left. Reset clears only what the previous set left behind.
// The reported word counts stay the model's: 2N−2 words up, and one word
// per link and round down (see delta.go and DESIGN.md §8).
package padr

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"cst/internal/circuit"
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
// The slice is indexed by node as circuit.NewSwitches lays it out (a
// non-nil entry per internal node, entry 0 unused) and is adopted by
// reference, so pooled engines can swap crossbar views every dispatch
// without copying. An engine that applies deltas is the exception: between
// two of its Apply or ApplyRounds calls nothing else may drive these
// switches, and a caller that changes them must Reset the engine and run
// from scratch before the next apply (see Apply).
func WithCrossbars(switches []*xbar.Switch) Option {
	return func(e *Engine) {
		e.switches = switches
		e.ownXbars = false
	}
}

// WithReflection toggles the mirrored-run adapter: the engine schedules a
// mirrored (originally left-oriented) set, and every connection is applied
// to the reflected physical switch with left and right swapped. Combined
// with WithCrossbars this bills a left-oriented pass to the same physical
// crossbars as the right-oriented pass, with physically correct
// attribution; a pooled engine can flip it between Reset calls. Do not
// combine with the data-plane recorder: the recorded configurations are in
// physical coordinates while the schedule is in mirrored coordinates.
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
// set on the same tree without reallocating, clearing only what the old
// set left in them, so pooled engines run allocation-free in steady state
// and in time that follows their sets, not N.
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
	unitsBase  int // cumulative meter baselines at begin, for
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
	commPos  []int32  // source PE -> index in set.Comms, -1 if not a source
	ends     []uint64 // bitmap of the set's endpoints, for nestedIn

	// Run and delta state (see delta.go). p1Stored/p1MatchedSub are the
	// pristine post-Phase-1 words for the current set — the state Phase 2
	// consumes — kept across runs so that a run recomputes matches only
	// along dirty root paths and an apply restores only the live entries
	// that the last Phase 2 drained. loads is the live per-edge load
	// table of the set; loadHist and curWidth give its maximum, the width.
	// While sparse holds, every arena is non-zero only on the set's
	// endpoints and their root paths, so Reset clears just those and a
	// from-scratch Phase 1 matches just those (DESIGN.md §8).
	p1Stored     []ctrl.Stored
	p1MatchedSub []int
	loads        []int // loads[EdgeIndex(e)] = circuits of the set on directed edge e
	loadHist     []int // loadHist[v] = directed edges carrying v circuits; v <= N/2, so N+1 buckets
	curWidth     int   // max over loads, maintained incrementally
	sparse       bool  // the arenas hold nothing outside the set's root paths
	deltaOK      bool  // the engine holds a complete post-run state Apply can mutate
	dirtyMark    []int // epoch stamps over switch nodes, len = leaves
	dirtyEpoch   int
	dirtyDepth   [][]topology.Node // this run's dirty switches, bucketed by depth
	touched      []topology.Node   // switches whose live state the last Phase 2 changed
	restore      liveRestore       // which live words the last run's Phase 2 may have drained

	// Phase 2 replay (see delta.go): per-switch records of the last
	// schedule that walked each subtree, and the current run's replay.
	rec        bool         // this delta run replays recorded subtrees and records what it walks
	recs       []subtreeRec // indexed by switch node, allocated by the first recording run
	runStamp   uint32       // stamp of the latest recording run
	chainBreak uint32       // records stamped at or below this are void
	counts     phase2Counts
	matched    int // switches Phase 1 matched this run, for the count probe

	ran       bool
	remaining int  // communications not yet performed
	prune     bool // active-path pruning enabled this run (no word observers)

	// rejected is the error of the last Reset if it was rejected: Run,
	// RunRounds and Apply refuse until a Reset succeeds.
	rejected error

	// per-round scratch
	roundSrcs    []int
	roundDsts    []bool // indexed by PE; entries listed in roundDstList
	roundDstList []int
	nestStack    []int // nestedIn's stack, reused

	// commArena backs every round's performed slice for one run (see begin).
	commArena []comm.Comm
	commUsed  int

	// reusable scratch for the wire-size encoders
	encBuf [ctrl.StoredWordBytes]byte

	// p is the current run's staged Phase 2 state (see finish).
	p prepared

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
// be right oriented and well nested, and match the tree's leaf count. A new
// engine's first run matches every switch in Phase 1.
func New(t *topology.Tree, s *comm.Set, opts ...Option) (*Engine, error) {
	n := t.Leaves()
	e := &Engine{
		tree:         t,
		set:          &comm.Set{N: n},
		stored:       make([]ctrl.Stored, n),
		matchedSub:   make([]int, n),
		p1Stored:     make([]ctrl.Stored, n),
		p1MatchedSub: make([]int, n),
		dstOf:        make([]int, n),
		leafRole:     make([]ctrl.Up, n),
		leafDone:     make([]bool, n),
		commPos:      make([]int32, n),
		ends:         make([]uint64, (n+63)/64),
		roundDsts:    make([]bool, n),
		loads:        make([]int, t.DirectedEdgeCount()),
		loadHist:     make([]int, n+1),
		dirtyMark:    make([]int, n),
		dirtyDepth:   make([][]topology.Node, t.Levels()),
	}
	e.retire()
	if err := e.arm(s); err != nil {
		return nil, err
	}
	for _, o := range opts {
		o(e)
	}
	if e.switches == nil {
		e.switches = circuit.NewSwitches(t)
		e.ownXbars = true
	}
	e.met = newEngineMetrics(e.reg)
	e.instr = e.reg != nil || e.tracer != nil
	e.curRound = -1
	return e, nil
}

// arm validates s and loads it into the engine's emptied arenas (see
// retire). On an error the arenas hold part of s.
func (e *Engine) arm(s *comm.Set) error {
	if e.tree.Leaves() != s.N {
		return fmt.Errorf("padr: tree has %d leaves, set has N=%d", e.tree.Leaves(), s.N)
	}
	// Validate inline over the engine's PE arenas instead of through
	// Set.Validate/IsWellNested, whose per-call maps and role slices would
	// be the only allocations left on the Reset path.
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
		for _, pe := range [2]int{c.Src, c.Dst} {
			if e.leafRole[pe] != (ctrl.Up{}) {
				return fmt.Errorf("padr: PE %d appears in two communications", pe)
			}
		}
		e.load(c, i)
	}
	if !e.nestedIn(0, s.N) {
		return fmt.Errorf("padr: set is not an oriented well-nested set: %s", s.String())
	}
	e.set.Comms = append(e.set.Comms[:0], s.Comms...)
	return nil
}

// load writes communication c, the set's i-th, into the PE arenas and the
// edge loads, without touching set.Comms.
func (e *Engine) load(c comm.Comm, i int) {
	e.leafRole[c.Src] = ctrl.Up{S: 1}
	e.leafRole[c.Dst] = ctrl.Up{D: 1}
	e.dstOf[c.Src] = c.Dst
	e.commPos[c.Src] = int32(i)
	e.ends[c.Src>>6] |= 1 << (c.Src & 63)
	e.ends[c.Dst>>6] |= 1 << (c.Dst & 63)
	e.shiftLoads(c, 1)
}

// clearPEs clears c's endpoints from the PE arenas.
func (e *Engine) clearPEs(c comm.Comm) {
	for _, pe := range [2]int{c.Src, c.Dst} {
		e.leafRole[pe] = ctrl.Up{}
		e.leafDone[pe] = false
		e.dstOf[pe], e.commPos[pe] = -1, -1
		e.ends[pe>>6] &^= 1 << (pe & 63)
	}
}

// nestedIn reports whether the communications of the set loaded into the
// PE arenas that have an endpoint among PEs [lo, hi) nest inside that
// range: scanning its endpoints in order with a stack of open
// destinations, every destination must close the innermost open span and
// no span may stay open. The scan walks the endpoint bitmap a word at a
// time, so it costs O((hi−lo)/64) plus the endpoints in range. Over the
// whole PE line this is the oriented well-nestedness check; over the
// inside of one communication it checks that nothing crosses it.
func (e *Engine) nestedIn(lo, hi int) bool {
	stack := e.nestStack[:0]
	ok := true
	for w := lo >> 6; w<<6 < hi && ok; w++ {
		word := e.ends[w]
		if w == lo>>6 {
			word &= ^uint64(0) << (lo & 63)
		}
		if hi < (w+1)<<6 {
			word &= 1<<(hi&63) - 1
		}
		for ; word != 0 && ok; word &= word - 1 {
			pe := w<<6 | bits.TrailingZeros64(word)
			if e.leafRole[pe].S == 1 {
				stack = append(stack, e.dstOf[pe])
				continue
			}
			ok = len(stack) > 0 && stack[len(stack)-1] == pe
			stack = stack[:max(len(stack)-1, 0)]
		}
	}
	ok = ok && len(stack) == 0
	e.nestStack = stack[:0]
	return ok
}

// retire empties the arenas of the current set so that arm can load the
// next one. While the arenas are sparse it clears only the set's own
// footprint: its endpoints' PE entries, and the edge loads and the live
// and post-Phase-1 words on their root paths. Otherwise — on a new engine,
// after a failed run or a rejected Reset, or after a run with an injector
// armed — it clears every entry.
func (e *Engine) retire() {
	if e.sparse {
		e.dirtyEpoch++ // stamps the switches clearPath clears
		for _, c := range e.set.Comms {
			e.clearPEs(c)
			e.clearPath(c.Src)
			e.clearPath(c.Dst)
		}
		clear(e.loadHist[:e.curWidth+1]) // no edge carries more than curWidth
		e.loadHist[0], e.curWidth = len(e.loads), 0
	} else {
		for pe := range e.dstOf {
			e.dstOf[pe], e.commPos[pe] = -1, -1
		}
		clear(e.leafRole)
		clear(e.leafDone)
		clear(e.ends)
		clear(e.stored)
		clear(e.matchedSub)
		clear(e.p1Stored)
		clear(e.p1MatchedSub)
		clear(e.loads)
		clear(e.loadHist)
		e.loadHist[0], e.curWidth = len(e.loads), 0
	}
	e.set.Comms = e.set.Comms[:0]
}

// clearPath zeroes the loads on the links of pe's root path and the live
// and post-Phase-1 words of its switches, stopping at a switch that an
// earlier path of this retire cleared, with every link and switch above it.
// Every load lies on an endpoint's root path, so retire leaves none.
func (e *Engine) clearPath(pe int) {
	for n := e.tree.Leaf(pe); n != e.tree.Root(); n = e.tree.Parent(n) {
		e.loads[e.tree.EdgeIndex(topology.Edge{Child: n, Dir: topology.Up})] = 0
		e.loads[e.tree.EdgeIndex(topology.Edge{Child: n, Dir: topology.Down})] = 0
		u := e.tree.Parent(n)
		if e.dirtyMark[u] == e.dirtyEpoch {
			return
		}
		e.dirtyMark[u] = e.dirtyEpoch
		e.stored[u], e.p1Stored[u] = ctrl.Stored{}, ctrl.Stored{}
		e.matchedSub[u], e.p1MatchedSub[u] = 0, 0
	}
}

// Reset re-arms the engine for a new communication set on the same tree,
// reusing every arena, so a pooled engine schedules run after run without
// reallocating. Engine-owned crossbars are returned to factory state
// (configuration and meters), making a Reset engine observationally
// identical to a fresh New one; caller-provided crossbars (WithCrossbars)
// are left untouched so cross-run billing keeps accumulating exactly as it
// would across fresh engines sharing them.
// Options passed here are applied on top of the engine's existing ones.
// After a rejected Reset the engine holds no set: Run, RunRounds and Apply
// refuse, naming the rejection, until a Reset succeeds.
func (e *Engine) Reset(s *comm.Set, opts ...Option) error {
	e.deltaOK = false
	e.retire()
	if err := e.arm(s); err != nil {
		e.sparse = false // arm may have loaded part of s
		e.rejected = err
		return err
	}
	e.rejected = nil
	if e.ownXbars {
		for _, sw := range e.switches {
			if sw != nil {
				sw.Zero()
			}
		}
	}
	e.ran = false
	e.curRound = -1
	reg := e.reg
	for _, o := range opts {
		o(e)
	}
	if e.reg != reg {
		e.met = newEngineMetrics(e.reg)
	}
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

// prepared is the staged state Phase 2 runs against: finish rebuilds it
// for every run, full or delta, in the engine's own copy.
type prepared struct {
	width     int
	maxRounds int
	initial   []ctrl.Stored
	schedule  *sched.Schedule
	round     int
}

// Run executes Phase 1 once and Phase 2 until every communication has been
// performed, then returns the schedule, power report and statistics.
func (e *Engine) Run() (*Result, error) { return e.result(e.run(false)) }

// RunRounds executes the schedule like Run but returns only the round
// count, skipping every result-only artifact: no initial-state snapshot,
// no schedule (and set clone), no power report. Theorem 5 validation and
// instrumented meter billing still happen, and shared crossbars' meters
// accumulate identically. On a warm (Reset) engine the whole Phase 1 →
// rounds → validate cycle is allocation-free, which is what lets the
// online dispatcher — and the wire serving path above it — run whole
// batches without a single allocation. Callers that need the schedule or
// the per-run power report use Run.
func (e *Engine) RunRounds() (int, error) { return e.run(true) }

// run is a from-scratch run: an apply from the empty set. Phase 1 matches
// the switches on the set's root paths and counts every other link's
// [0,0] word, or matches every switch when an injector is armed (every
// word must pass it) or the arenas are not sparse; then runPhases finishes.
func (e *Engine) run(light bool) (int, error) {
	if e.rejected != nil {
		return 0, e.fail(fmt.Errorf("padr: no set to run: the last Reset was rejected: %w", e.rejected))
	}
	if e.ran {
		return 0, e.fail(fmt.Errorf("padr: engine is single-use; create a new one"))
	}
	e.ran = true
	e.markSet(!e.sparse || e.inj != nil)
	e.begin(false)
	return e.runPhases(false, light)
}

// runPhases runs the rest of a run, full or delta, once its dirty switches
// are marked and its live words match the post-Phase-1 ones off them:
// Phase 1 over them, then finish. The width is the live load table's
// maximum.
func (e *Engine) runPhases(delta, light bool) (int, error) {
	width := e.curWidth
	e.met.width.Set(int64(width))
	if err := e.phase1(); err != nil {
		return 0, e.fail(err)
	}
	if !delta {
		// Every link that no matched switch reads carries [0,0] up, so a
		// from-scratch run sends a word on each of the 2N−2 links.
		idle := e.tree.EdgeCount() - e.upWords
		e.upWords += idle
		e.upBytes += idle * ctrl.UpWordBytes
	}
	e.met.upWords.Add(int64(e.upWords))
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{
			Type: "phase1.done", Engine: "padr", Round: -1,
			N: e.upWords, DurNS: time.Since(e.runStart).Nanoseconds(), Width: width,
		})
	}
	return e.finish(width, light)
}

// begin opens a run, full or delta: it zeroes the word counters and the
// round arena, books the run's metrics and the meter baselines that let
// shared crossbars bill only this run, emits run.start, advances the
// injector's run and decides whether Phase 2 may prune and, on the delta
// path, replay. Until finish succeeds the arenas count as not sparse.
func (e *Engine) begin(delta bool) {
	e.deltaOK, e.sparse = false, false
	e.matched = 0
	e.upWords, e.downWords, e.upBytes, e.downBytes, e.activeDown = 0, 0, 0, 0, 0
	// commArena backs every round's performed slice for one run: rounds
	// partition the set, so set.Len() entries suffice for the whole run.
	e.remaining, e.commUsed = e.set.Len(), 0
	if cap(e.commArena) < e.remaining {
		e.commArena = make([]comm.Comm, e.remaining)
	}
	e.commArena = e.commArena[:cap(e.commArena)]
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
	e.beginReplay(delta)
}

// finish ends every run, full or delta, once its Phase 1 is done: it checks
// that nothing is left unmatched at the root, stages Phase 2 and runs it
// until every communication is performed, checks Theorem 5, bills the
// run's meter delta, and emits run.done and the padr.run span. Unless
// light, the run keeps the result-only artifacts: a snapshot of the
// post-Phase-1 words and a schedule over its own copy of the set (e.set is
// an arena the next Reset or Apply overwrites, while results must stay
// immutable). A recording run commits its subtree records (delta.go). A
// finished engine is Ready for Apply, and its arenas are sparse unless an
// injector was armed.
func (e *Engine) finish(width int, light bool) (int, error) {
	if up := e.stored[e.tree.Root()].UpWord(); up.S != 0 || up.D != 0 {
		return 0, e.fail(fmt.Errorf("padr: root still advertises %s upward; set is not schedulable", up))
	}
	p := &e.p
	*p = prepared{width: width, maxRounds: width + MaxRoundsSlack}
	if e.sel == Conservative {
		// The conservative rule may run past the width; bound the loop by
		// the trivial one-communication-per-round schedule instead.
		p.maxRounds = e.set.Len() + MaxRoundsSlack
	}
	if !light {
		p.initial = slices.Clone(e.stored)
		p.schedule = &sched.Schedule{Set: e.set.Clone()}
	}
	for e.remaining > 0 {
		if err := e.step(); err != nil {
			return 0, err
		}
	}
	if e.rec {
		e.commitRecords()
	}
	rounds := p.round
	if e.sel == Greedy && rounds != width {
		return 0, e.fail(fmt.Errorf("padr: took %d rounds for a width-%d set (Theorem 5 violated)", rounds, width))
	}
	if e.instr {
		units, alts := e.meterTotals()
		e.met.units.Add(int64(units - e.unitsBase))
		e.met.alternations.Add(int64(alts - e.altBase))
		e.met.runLatency.ObserveDuration(time.Since(e.runStart))
		if e.tracer != nil {
			e.tracer.Emit(obs.Event{
				Type: "run.done", Engine: "padr", Round: -1,
				N: rounds, DurNS: time.Since(e.runStart).Nanoseconds(), Width: width,
				Trace: e.traceID(),
			})
			// The padr.run span consumes the run's span context.
			if e.span.Valid() {
				e.tracer.EmitSpan(obs.SpanRecord{
					Trace: e.span.Trace, Span: e.tracer.NewSpanID(), Parent: e.span.Span,
					Name: "padr.run", Engine: "padr",
					Start: e.runStart, End: time.Now(), N: rounds,
				})
				e.span = obs.SpanContext{}
			}
		}
	}
	e.deltaOK = true
	// An armed injector may have corrupted words anywhere.
	e.sparse = e.inj == nil
	return rounds, nil
}

// step executes one Phase 2 round of the staged run, appending it to the
// schedule when the run keeps one.
func (e *Engine) step() error {
	p := &e.p
	if p.round >= p.maxRounds {
		return e.fail(fmt.Errorf("padr: exceeded %d rounds for a width-%d set; pending work remains", p.round, p.width))
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
	performed, err := e.round()
	if err != nil {
		return e.fail(fmt.Errorf("padr: round %d: %w", p.round, err))
	}
	// Unless the round lists them, round 0's replayed subtrees are booked
	// in replay and do not show among the performed communications.
	if len(performed) == 0 && (p.round > 0 || e.counts.replayed == 0) {
		return e.fail(fmt.Errorf("padr: round %d made no progress but work remains", p.round))
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
	return nil
}

// result assembles Run's and Apply's Result from a finished run, passing a
// failed run's error through. The schedule's rounds are slices of the round
// arena, which the engine's next run overwrites, so the result gets one
// copy of the used arena, re-sliced per round.
func (e *Engine) result(rounds int, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	arena := slices.Clone(e.commArena[:e.commUsed])
	for i, r := range e.p.schedule.Rounds {
		e.p.schedule.Rounds[i], arena = arena[:len(r):len(r)], arena[len(r):]
	}
	return &Result{
		Schedule:        e.p.schedule,
		Report:          power.Collect(e.algorithmName(), e.mode, rounds, e.tree, e.switches),
		Width:           e.p.width,
		Rounds:          rounds,
		InitialStored:   e.p.initial,
		UpWords:         e.upWords,
		DownWords:       e.downWords,
		UpBytes:         e.upBytes,
		DownBytes:       e.downBytes,
		ActiveDownWords: e.activeDown,
		MaxStoredBytes:  ctrl.StoredWordBytes,
	}, nil
}

// algorithmName labels power reports: "padr" for the default rule, since
// Greedy is the literal paper algorithm, and "padr-conservative" otherwise.
func (e *Engine) algorithmName() string {
	if e.sel == Conservative {
		return "padr-conservative"
	}
	return "padr"
}

// upWordFrom returns the C_U word the given child sends its parent, read
// from the post-Phase-1 words, counting the message and its encoded size.
// Under fault injection the link may lose or mutate the word; the word is
// then validated against the child's subtree (a C_U advertising more
// endpoints than the subtree has PEs is physically impossible), so
// link-local corruption dies here with a typed error instead of poisoning
// the matching above.
func (e *Engine) upWordFrom(child topology.Node) (ctrl.Up, error) {
	var up ctrl.Up
	if e.tree.IsLeaf(child) {
		up = e.leafRole[e.tree.PE(child)]
	} else {
		up = e.p1Stored[child].UpWord()
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
	e.counts.switches++
	if e.inj != nil && e.inj.FrozenAt(n, e.curRound) {
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
// is provably inert this round (an idle word into a PE, or into a subtree
// with no matched pair left), in which case the walk is pruned and the
// words the full recursion would have delivered are accounted
// arithmetically, or its whole schedule is known from the last one, in
// which case it is replayed (see replay).
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
	if e.prune && w.Use == ctrl.UseNone {
		if e.tree.IsLeaf(c) {
			e.counts.leaves++ // a PE ignores [null,null]
			return nil
		}
		if e.matchedSub[c] == 0 {
			e.counts.pruned++
			e.skipSubtree(c)
			return nil
		}
		if e.rec && e.curRound == 0 && e.replayable(c) {
			e.replay(c)
			return nil
		}
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
	if w.Use == ctrl.UseNone {
		e.downBytes += ctrl.DownWordBytes // Step's idle words carry zero selectors
	} else {
		e.activeDown++
		e.met.activeDown.Inc()
		if sz, err := ctrl.EncodeDownInto(e.encBuf[:], w); err == nil {
			e.downBytes += sz
		}
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
	e.counts.leaves++
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
	was := *st
	var before xbar.Config
	if e.tracer != nil {
		before = e.switches[phys].Config()
	}
	if e.reflected {
		left, right, err = Step(st, sideSwapper{e.switches[phys]}, in, e.sel)
	} else {
		left, right, err = Step(st, e.switches[phys], in, e.sel)
	}
	if dm := was.M - st.M; dm != 0 {
		// A matched pair started here: keep the subtree totals on the
		// root path exact so future rounds prune correctly.
		for v := u; v >= e.tree.Root(); v = e.tree.Parent(v) {
			e.matchedSub[v] -= dm
		}
	}
	if err != nil {
		return left, right, err
	}
	if e.rec {
		e.note(u, st.Total() < was.Total(), left, right)
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
