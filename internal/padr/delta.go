// Delta scheduling: incremental re-runs of CSA against a mutated
// communication set (ROADMAP "incremental / self-adjusting scheduling").
//
// Every run keeps the pristine post-Phase-1 state — every switch's C_S
// word and the matchedSub subtree totals — exactly as Phase 2 is about to
// consume it, together with the set's live per-edge load table. Apply then
// exploits the locality of the matching: a switch's C_S word depends only
// on the leaves of its subtree, so an add/remove touching k endpoints
// invalidates only the switches on the k root paths above them (O(k·log N)
// of the N−1 switches). Apply re-runs Match bottom-up, level by level, over
// exactly that dirty set, and restores the live arrays only where the last
// Phase 2 drained them, so Phase 2 sees byte-identical stored words,
// matchedSub totals and width.
//
// A from-scratch run is the same thing applied to the empty set. While the
// engine's arenas are sparse — live and post-Phase-1 words, edge loads and
// PE entries non-zero only on the set's endpoints and their root paths —
// Reset retires the old set along its own root paths and arm loads the new
// one, and Phase 1 matches only the new set's root-path union: every other
// switch roots an endpoint-free subtree, whose words are [0,0] and are
// counted, not computed. A new engine, an armed injector, and arenas a
// failed run or a rejected Reset left unknown make Phase 1 match every
// switch instead (DESIGN.md §8).
//
// Phase 2 is local too (paper §3, Fig. 5): a switch acts only on its C_S
// word and the one word its parent sends. A subtree whose Phase 1 up-word
// is [0,0] is closed: its parent holds no pending source or destination
// of it, so every word it ever receives is [null,null], and its schedule
// depends on its own C_S words alone. Apply therefore replays, instead of
// walking, every subtree that is
//
//   - clean: no switch in it is dirtied by this delta, so its C_S words
//     equal the last schedule's;
//   - closed: its up-word is [0,0];
//   - stable: each of its switches still holds, at the end of the
//     schedule that last walked it, every connection it made in that
//     schedule, so reissuing them costs no unit and no alternation;
//   - recorded: an unbroken chain of successful recording runs on this
//     engine wrote its record.
//
// A stable closed subtree is done in round 0: one that needs a second
// round sends two communications through one of its links, and the switch
// where they part drives that link from two sides in turn. So the record
// keeps "no connection after round 0" for stability, and a replay books
// in round 0 the subtree's communications, its matched pairs (taken off
// matchedSub up its root path, so later rounds prune it and its idle
// ancestors as a walk would) and its Phase 2 words, without visiting it.
// The result — schedule, word counts and every crossbar's configuration
// and meters — is bit-identical to a from-scratch run on the mutated set.
//
// Replay and recording are on in delta runs exactly when pruning is (no
// word or config Observer callback, no tracer, no injector) and the power
// mode is Stateful. A from-scratch run neither replays nor records, and it
// voids every record, so the first apply after it walks in full; engines
// that never apply a delta — every pair batch — pay a branch. Replay
// assumes nothing else drives the engine's crossbars between its runs,
// which holds for engine-owned crossbars and for the private arenas of
// online delta sessions; a caller that changes them must Reset and run
// from scratch before the next Apply.
//
// The set's link width is maintained incrementally too: each communication
// that arm loads or a delta adds or removes walks its tree path adjusting
// the per-edge load table, retire zeroes the loads along the old set's root
// paths, and a histogram over load values yields the maximum without an
// O(N) rescan.
//
// Invariants and fallback rules (DESIGN.md §incremental-scheduling):
//
//   - Apply is legal only on a Ready engine — one whose last run completed
//     successfully, leaving a trusted Phase-1 snapshot (ErrNotReady
//     otherwise).
//   - An invalid delta (unknown remove, busy endpoint, orientation or
//     nesting violation) is rejected with ErrDelta after rolling the set
//     mutations back; the engine stays Ready on the old set.
//   - Once the mutation commits, any failure (fault injection, validation)
//     leaves the engine not Ready; the caller falls back to Reset + a
//     from-scratch run on the full set.
//
// Result caveats: UpWords/UpBytes count only the re-floated dirty words
// (the measured savings, not the scratch-run totals), and Schedule.Set may
// order communications differently than a from-scratch arm (removal is
// swap-remove); rounds, stored words and width are bit-identical.
package padr

import (
	"errors"
	"fmt"

	"cst/internal/comm"
	"cst/internal/ctrl"
	"cst/internal/obs"
	"cst/internal/power"
	"cst/internal/topology"
)

// ErrNotReady is returned by Apply/ApplyRounds when the engine does not
// hold a completed run's Phase-1 snapshot to mutate (never ran, was Reset,
// or the previous run failed).
var ErrNotReady = errors.New("padr: engine holds no completed run to apply a delta to")

// ErrDelta wraps every delta-validation failure. The engine's set and
// readiness are unchanged when an error matches it, so the caller may fix
// the delta and retry without falling back to a from-scratch run.
var ErrDelta = errors.New("padr: invalid delta")

// Delta is a mutation of the engine's current communication set: Remove
// lists communications to drop (matched by exact src/dst) and Add lists
// communications to insert. Removes are applied before adds, so a delta may
// re-pair a PE in one call. The mutated set must be oriented well-nested.
type Delta struct {
	Add    []comm.Comm
	Remove []comm.Comm
}

// Size is the number of mutation operations in the delta.
func (d Delta) Size() int { return len(d.Add) + len(d.Remove) }

// Ready reports whether the engine holds a completed run Apply can mutate.
func (e *Engine) Ready() bool { return e.deltaOK }

// Set exposes the engine's current communication set. The returned set is
// the engine's live arena: read-only for callers, valid until the next
// Reset or Apply.
func (e *Engine) Set() *comm.Set { return e.set }

// Apply mutates the last scheduled set by d and re-runs the schedule,
// reusing Phase 1 state everywhere outside the dirty root paths. The
// result is bit-identical to Reset+Run on the mutated set (see the package
// comment for the two documented exceptions). Crossbar state is carried
// over, so power reports bill only the reconfigurations this run causes —
// the PADR story for long-lived dynamic sets.
//
// Apply replays unchanged subtrees from records of what their crossbars
// held after the engine's previous delta run, so nothing else may drive
// the engine's crossbars between two applies: a caller that changes them
// (through crossbars shared by WithCrossbars, or by zeroing them) must
// Reset and run from scratch before the next Apply, or the replay leaves
// the wrong configuration and under-bills units and alternations.
func (e *Engine) Apply(d Delta) (*Result, error) { return e.result(e.apply(d, false)) }

// ApplyRounds is Apply's rounds-only twin, mirroring RunRounds: no
// schedule, no snapshot, no power report, and allocation-free on a warm
// engine as long as the set does not outgrow its arenas. Apply's
// precondition on the crossbars holds here too.
func (e *Engine) ApplyRounds(d Delta) (int, error) { return e.apply(d, true) }

// apply is run for the delta path: restore the live arrays, mutate the
// set, patch Phase 1 along the dirty paths and finish.
func (e *Engine) apply(d Delta, light bool) (int, error) {
	if e.rejected != nil {
		return 0, fmt.Errorf("%w: the last Reset was rejected: %w", ErrNotReady, e.rejected)
	}
	if !e.deltaOK {
		return 0, ErrNotReady
	}
	e.restoreLive()
	if err := e.applyMutate(d); err != nil {
		return 0, err // rolled back; the engine stays Ready on the old set
	}
	// Mutation committed: from here any failure leaves the engine not
	// Ready (begin clears it), and the caller must fall back to Reset + a
	// from-scratch run.
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{Type: "delta.apply", Engine: "padr", Round: -1, N: d.Size(), Trace: e.traceID()})
	}
	e.begin(true)
	// Only the current set's endpoints can hold a done flag (removeComm
	// clears a removed communication's).
	for _, c := range e.set.Comms {
		e.leafDone[c.Src] = false
		e.leafDone[c.Dst] = false
	}
	return e.runPhases(true, light)
}

// liveRestore names the live words the last run's Phase 2 may have
// drained, which the next apply brings back to the post-Phase-1 ones.
type liveRestore uint8

const (
	restoreTouched liveRestore = iota // those of the switches listed in touched
	restoreMarked                     // those of the switches a from-scratch run's Phase 1 matched
	restoreAll                        // any: the run kept no list
)

// restoreLive brings the live words back to the post-Phase-1 ones before
// an apply mutates the set; everywhere but where e.restore says, the two
// already agree. A from-scratch run's matched switches are still listed in
// the dirty buckets, which the mutation then reuses.
func (e *Engine) restoreLive() {
	switch e.restore {
	case restoreAll:
		copy(e.stored, e.p1Stored)
		copy(e.matchedSub, e.p1MatchedSub)
	case restoreMarked:
		for _, level := range e.dirtyDepth {
			for _, u := range level {
				e.stored[u], e.matchedSub[u] = e.p1Stored[u], e.p1MatchedSub[u]
			}
		}
	default:
		for _, u := range e.touched {
			e.stored[u], e.matchedSub[u] = e.p1Stored[u], e.p1MatchedSub[u]
		}
	}
	e.touched = e.touched[:0]
	e.restore = restoreTouched
}

// applyMutate validates and applies the delta to the set arenas (leafRole,
// dstOf, commPos, set.Comms, edge loads) transactionally: on any failure
// the applied prefix is undone via inverse operations and ErrDelta is
// returned with the engine still Ready. Dirty marks accumulated by a
// rolled-back prefix are harmless — the epoch is re-stamped on the next
// Apply and recomputing a clean switch reproduces its value.
func (e *Engine) applyMutate(d Delta) error {
	e.newEpoch()

	remDone, addDone := 0, 0
	var err error
	for _, c := range d.Remove {
		if err = e.removeComm(c); err != nil {
			break
		}
		remDone++
	}
	if err == nil {
		for _, c := range d.Add {
			if err = e.addComm(c); err != nil {
				break
			}
			addDone++
		}
	}
	// Removals cannot break nesting, so the result is well-nested exactly
	// when nothing crosses an added communication: scan each one's inside.
	for _, c := range d.Add {
		if err != nil {
			break
		}
		if !e.nestedIn(c.Src+1, c.Dst) {
			err = fmt.Errorf("add %s: crosses another communication", c)
		}
	}
	if err != nil {
		// Inverse operations in reverse order; each is valid by
		// construction, so the rollback cannot fail.
		for i := addDone - 1; i >= 0; i-- {
			_ = e.removeComm(d.Add[i])
		}
		for i := remDone - 1; i >= 0; i-- {
			_ = e.addComm(d.Remove[i])
		}
		e.settleWidth()
		return fmt.Errorf("%w: %v", ErrDelta, err)
	}
	e.settleWidth()
	return nil
}

// addComm inserts one communication into the set arenas.
func (e *Engine) addComm(c comm.Comm) error {
	n := e.set.N
	if c.Src < 0 || c.Src >= n || c.Dst < 0 || c.Dst >= n {
		return fmt.Errorf("add %s: out of range for N=%d", c, n)
	}
	if c.Src == c.Dst {
		return fmt.Errorf("add %s: self loop", c)
	}
	if !c.RightOriented() {
		return fmt.Errorf("add %s: not right oriented", c)
	}
	if e.leafRole[c.Src] != (ctrl.Up{}) {
		return fmt.Errorf("add %s: PE %d already appears in the set", c, c.Src)
	}
	if e.leafRole[c.Dst] != (ctrl.Up{}) {
		return fmt.Errorf("add %s: PE %d already appears in the set", c, c.Dst)
	}
	e.load(c, len(e.set.Comms))
	e.set.Comms = append(e.set.Comms, c)
	e.markDirty(c)
	return nil
}

// removeComm swap-removes one communication from the set arenas.
func (e *Engine) removeComm(c comm.Comm) error {
	n := e.set.N
	if c.Src < 0 || c.Src >= n || c.Dst < 0 || c.Dst >= n || c.Src == c.Dst || e.dstOf[c.Src] != c.Dst {
		return fmt.Errorf("remove %s: not in the current set", c)
	}
	i := int(e.commPos[c.Src])
	last := len(e.set.Comms) - 1
	e.set.Comms[i] = e.set.Comms[last]
	e.commPos[e.set.Comms[i].Src] = int32(i)
	e.set.Comms = e.set.Comms[:last]
	e.clearPEs(c)
	e.shiftLoads(c, -1)
	e.markDirty(c)
	return nil
}

// shiftLoads adjusts the live per-edge load table along c's tree path by
// delta (±1), keeping the load histogram and running width current. The
// path and the counting are exactly comm.Set.WidthInto's, so curWidth is
// the width WidthInto would report for the set.
func (e *Engine) shiftLoads(c comm.Comm, delta int) {
	lca := e.tree.LCA(c.Src, c.Dst)
	for n := e.tree.Leaf(c.Src); n != lca; n = e.tree.Parent(n) {
		e.shiftLoad(e.tree.EdgeIndex(topology.Edge{Child: n, Dir: topology.Up}), delta)
	}
	for n := e.tree.Leaf(c.Dst); n != lca; n = e.tree.Parent(n) {
		e.shiftLoad(e.tree.EdgeIndex(topology.Edge{Child: n, Dir: topology.Down}), delta)
	}
}

func (e *Engine) shiftLoad(i, delta int) {
	v := e.loads[i]
	e.loadHist[v]--
	v += delta
	e.loads[i] = v
	e.loadHist[v]++
	if v > e.curWidth {
		e.curWidth = v
	}
}

// settleWidth shrinks curWidth past emptied histogram buckets after
// removals (additions bump it in shiftLoads).
func (e *Engine) settleWidth() {
	for e.curWidth > 0 && e.loadHist[e.curWidth] == 0 {
		e.curWidth--
	}
}

// newEpoch opens an empty dirty set.
func (e *Engine) newEpoch() {
	e.dirtyEpoch++
	for d := range e.dirtyDepth {
		e.dirtyDepth[d] = e.dirtyDepth[d][:0]
	}
}

// markSet opens the dirty set of a from-scratch run: the switches on the
// set's root paths, or every switch when full. Each depth bucket of a full
// set lists its switches in descending order, so Phase 1 visits every
// switch in descending node order.
func (e *Engine) markSet(full bool) {
	e.newEpoch()
	if !full {
		for _, c := range e.set.Comms {
			e.markDirty(c)
		}
		return
	}
	for u := topology.Node(e.tree.Switches()); u >= e.tree.Root(); u-- {
		e.mark(u)
	}
}

// markDirty stamps every switch on the root paths above c's endpoints into
// the current epoch's dirty set. Paths share suffixes, so the walk stops at
// the first already-stamped ancestor.
func (e *Engine) markDirty(c comm.Comm) {
	e.markDirtyLeaf(c.Src)
	e.markDirtyLeaf(c.Dst)
}

func (e *Engine) markDirtyLeaf(pe int) {
	for u := e.tree.Parent(e.tree.Leaf(pe)); u >= e.tree.Root(); u = e.tree.Parent(u) {
		if e.dirtyMark[u] == e.dirtyEpoch {
			return // this ancestor, hence everything above, is already dirty
		}
		e.mark(u)
	}
}

// mark adds switch u to the current epoch's dirty set.
func (e *Engine) mark(u topology.Node) {
	e.dirtyMark[u] = e.dirtyEpoch
	d := e.tree.Depth(u)
	e.dirtyDepth[d] = append(e.dirtyDepth[d], u)
}

// phase1 runs Steps 1.1–1.3 over the dirty switches, reading and writing
// the post-Phase-1 words. A switch off every dirty root path has an
// unchanged subtree, hence an unchanged C_S word and matchedSub total —
// [0,0] and 0 on a from-scratch run, whose clean subtrees hold no
// endpoint — so confining Match to the dirty set reproduces a Phase 1 over
// every switch exactly. Going up the tree one depth bucket at a time visits
// children before parents. Fault injection sees the per-word hook on every
// word Match reads. Each recomputed word is range-checked; the encoding is
// fixed-size, so every run reports StoredWordBytes as its largest state.
func (e *Engine) phase1() error {
	for d := len(e.dirtyDepth) - 1; d >= 0; d-- {
		for _, u := range e.dirtyDepth[d] {
			e.matched++
			lc, rc := e.tree.Left(u), e.tree.Right(u)
			left, err := e.upWordFrom(lc)
			if err != nil {
				return err
			}
			right, err := e.upWordFrom(rc)
			if err != nil {
				return err
			}
			st := ctrl.Match(left, right)
			if _, err := ctrl.EncodeStoredInto(e.encBuf[:], st); err != nil {
				return fmt.Errorf("padr: switch %d state not encodable: %v", u, err)
			}
			m := st.M
			if e.tree.IsSwitch(lc) {
				m += e.p1MatchedSub[lc]
			}
			if e.tree.IsSwitch(rc) {
				m += e.p1MatchedSub[rc]
			}
			e.p1Stored[u], e.p1MatchedSub[u] = st, m
			e.stored[u], e.matchedSub[u] = st, m
		}
	}
	return nil
}

// subtreeRec is a switch's record of the last schedule that walked it.
// While that run is in progress the fields hold the switch's own part;
// commitRecords then folds in its children's, so that a committed record
// describes the whole subtree.
type subtreeRec struct {
	run      uint32 // recording run that last walked or replayed the switch
	active   int32  // Phase 2 words other than [null,null] sent below the root
	late     bool   // a connection was made after round 0
	replayed bool   // replayed, not walked, in run
}

// phase2Counts counts one run's Phase 2 work for the count probe; step
// also reads replayed, since replays can leave round 0 with no walked work.
type phase2Counts struct {
	switches, leaves, pruned, replayed int
}

// beginReplay decides whether this run records and replays, resets the
// run's replay state, and notes which live words its Phase 2 may drain.
// Only delta runs record and replay. A run that does not record voids
// every record, since it changes switches without noting it, so the first
// apply after a from-scratch run walks in full.
func (e *Engine) beginReplay(delta bool) {
	e.rec = delta && e.prune && e.mode == power.Stateful
	switch {
	case !delta:
		e.restore = restoreMarked
	case e.rec:
		e.restore = restoreTouched
	default:
		e.restore = restoreAll
	}
	e.counts = phase2Counts{}
	if !e.rec {
		e.chainBreak = e.runStamp
		return
	}
	if e.recs == nil {
		e.recs = make([]subtreeRec, e.tree.Leaves())
	}
	if e.runStamp++; e.runStamp == 0 {
		clear(e.recs) // the stamp wrapped: forget every record
		e.runStamp, e.chainBreak = 1, 0
	}
}

// replayable reports whether subtree c, met on round 0 with an idle word
// and pending pairs, may be replayed: clean, closed, recorded and stable.
// The live stored word is still the pristine one, since c has not yet
// been dispatched. For a closed subtree, stable is the same as finishing
// in round 0: within one round a switch's connections never displace one
// another, and a subtree that needs a second round sends two
// communications through one of its links, so the switch where they part
// drives that link from two sides in turn.
func (e *Engine) replayable(c topology.Node) bool {
	st, r := e.stored[c], &e.recs[c]
	return st.SL+st.SR == 0 && st.DL+st.DR == 0 &&
		e.dirtyMark[c] != e.dirtyEpoch && r.run > e.chainBreak && !r.late
}

// replay books closed subtree c's schedule from its record instead of
// walking it. All of it happens in round 0 (see replayable): its pairs
// leave matchedSub on the root path, so later rounds prune c and its idle
// ancestors as a walk would; its active words are counted; and this
// round's idle words below c are counted as a pruned subtree's. When the
// round lists what it performed, c's communications join the list here,
// at c's place in the walk; otherwise they leave the outstanding work.
func (e *Engine) replay(c topology.Node) {
	r := &e.recs[c]
	pairs := e.matchedSub[c]
	for v := c; v >= e.tree.Root(); v = e.tree.Parent(v) {
		e.matchedSub[v] -= pairs
	}
	e.activeDown += int(r.active)
	e.met.activeDown.Add(int64(r.active))
	e.skipSubtree(c)
	e.counts.replayed++
	r.run, r.replayed = e.runStamp, true
	e.touched = append(e.touched, c)
	if e.p.schedule == nil && e.obs.RoundDone == nil {
		e.remaining -= pairs
		return
	}
	lo, hi := e.tree.Span(c)
	for pe := lo; pe < hi; pe++ {
		if e.leafRole[pe].S == 1 {
			dst := e.dstOf[pe]
			e.roundSrcs = append(e.roundSrcs, pe)
			e.roundDsts[dst] = true
			e.roundDstList = append(e.roundDstList, dst)
		}
	}
}

// note records what walked switch u did this round: whether its Step made
// a connection (it drains one C_S counter per connection) after round 0,
// and its active words to its children. The first note of a run lists u
// as touched.
func (e *Engine) note(u topology.Node, connected bool, left, right ctrl.Down) {
	r := &e.recs[u]
	if r.run != e.runStamp {
		*r = subtreeRec{run: e.runStamp}
		e.touched = append(e.touched, u)
	}
	if connected && e.curRound > 0 {
		r.late = true
	}
	if left.Use != ctrl.UseNone {
		r.active++
	}
	if right.Use != ctrl.UseNone {
		r.active++
	}
}

// commitRecords turns the walked switches' own notes into subtree
// records, children first (touched lists parents before children). A
// child switch the run neither walked nor replayed held no communication
// and adds nothing; a replayed child adds its kept record.
func (e *Engine) commitRecords() {
	for i := len(e.touched) - 1; i >= 0; i-- {
		u := e.touched[i]
		r := &e.recs[u]
		if r.replayed {
			r.replayed = false
			continue
		}
		for _, c := range [2]topology.Node{e.tree.Left(u), e.tree.Right(u)} {
			if !e.tree.IsSwitch(c) || e.recs[c].run != e.runStamp {
				continue
			}
			r.active += e.recs[c].active
			r.late = r.late || e.recs[c].late
		}
	}
}
