// Delta scheduling: incremental re-runs of CSA against a mutated
// communication set (ROADMAP "incremental / self-adjusting scheduling").
//
// A full run retains the pristine post-Phase-1 state — every switch's
// C_S word and the matchedSub subtree totals — exactly as Phase 2 is about
// to consume it. Apply then exploits the locality of the matching: a
// switch's C_S word depends only on the leaves of its subtree, so an
// add/remove touching k endpoints invalidates only the switches on the k
// root paths above them (O(k·log N) of the N−1 switches). Apply re-runs
// Match bottom-up over exactly that dirty set, restores the live arrays
// with two memcopies and executes an ordinary Phase 2 — which is why the
// resulting schedule is bit-identical to a from-scratch run on the mutated
// set: Phase 2 sees byte-identical stored words, matchedSub totals and
// width, and never learns it was prepared incrementally.
//
// The set's link width is maintained incrementally too: the per-edge load
// table that WidthInto filled is kept live, each mutation walks the
// communication's tree path adjusting loads, and a histogram over load
// values yields the new maximum without an O(N) rescan.
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
	"slices"
	"time"

	"cst/internal/comm"
	"cst/internal/ctrl"
	"cst/internal/obs"
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
func (e *Engine) Apply(d Delta) (*Result, error) { return e.result(e.apply(d, false)) }

// ApplyRounds is Apply's rounds-only twin, mirroring RunRounds: no
// schedule, no snapshot, no power report, and allocation-free on a warm
// engine as long as the set does not outgrow its arenas.
func (e *Engine) ApplyRounds(d Delta) (int, error) { return e.apply(d, true) }

// apply is run for the delta path: mutate the set, patch Phase 1 along the
// dirty paths, restore the live arrays and finish.
func (e *Engine) apply(d Delta, light bool) (int, error) {
	if !e.deltaOK {
		return 0, ErrNotReady
	}
	if err := e.applyMutate(d); err != nil {
		return 0, err // rolled back; the engine stays Ready on the old set
	}
	// Mutation committed: from here any failure leaves the engine not
	// Ready (begin clears it), and the caller must fall back to Reset + a
	// from-scratch run.
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{Type: "delta.apply", Engine: "padr", Round: -1, N: d.Size(), Trace: e.traceID()})
	}
	e.begin()
	// Only the current set's endpoints need their done flags cleared: a
	// stale true at any other PE is unreachable, because leaf() checks
	// leafRole first.
	for _, c := range e.set.Comms {
		e.leafDone[c.Src] = false
		e.leafDone[c.Dst] = false
	}
	width := e.curWidth
	e.met.width.Set(int64(width))

	if err := e.deltaPhase1(); err != nil {
		return 0, e.fail(err)
	}
	e.met.upWords.Add(int64(e.upWords))
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{
			Type: "phase1.done", Engine: "padr", Round: -1,
			N: e.upWords, DurNS: time.Since(e.runStart).Nanoseconds(), Width: width,
		})
	}

	// Validate the recomputed words. The encoding is fixed-size, so the
	// from-scratch maxStored sweep always yields StoredWordBytes; only
	// range validation needs to run, and only over the dirty switches.
	for _, u := range e.dirtyList {
		if _, err := ctrl.EncodeStoredInto(e.encBuf[:], e.p1Stored[u]); err != nil {
			return 0, e.fail(fmt.Errorf("padr: switch %d state not encodable: %v", u, err))
		}
	}
	// Restore the live arrays Phase 2 drains from the pristine snapshot.
	copy(e.stored, e.p1Stored)
	copy(e.matchedSub, e.p1MatchedSub)
	return e.finish(width, ctrl.StoredWordBytes, light)
}

// applyMutate validates and applies the delta to the set arenas (leafRole,
// dstOf, commPos, set.Comms, edge loads) transactionally: on any failure
// the applied prefix is undone via inverse operations and ErrDelta is
// returned with the engine still Ready. Dirty marks accumulated by a
// rolled-back prefix are harmless — the epoch is re-stamped on the next
// Apply and recomputing a clean switch reproduces its value.
func (e *Engine) applyMutate(d Delta) error {
	if e.histDirty {
		e.rebuildLoadHist()
	}
	if e.dirtyMark == nil {
		e.dirtyMark = make([]int, e.set.N)
	}
	e.dirtyEpoch++
	e.dirtyList = e.dirtyList[:0]

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
	if err == nil && !e.scanNested() {
		err = fmt.Errorf("resulting set is not oriented well-nested")
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
	e.leafRole[c.Src] = ctrl.Up{S: 1}
	e.leafRole[c.Dst] = ctrl.Up{D: 1}
	e.dstOf[c.Src] = c.Dst
	e.commPos[c.Src] = int32(len(e.set.Comms))
	e.set.Comms = append(e.set.Comms, c)
	e.shiftLoads(c, 1)
	e.markDirty(c)
	return nil
}

// removeComm swap-removes one communication from the set arenas.
func (e *Engine) removeComm(c comm.Comm) error {
	n := e.set.N
	if c.Src < 0 || c.Src >= n || c.Dst < 0 || c.Dst >= n || c.Src == c.Dst || e.dstOf[c.Src] != c.Dst {
		return fmt.Errorf("remove %s: not in the current set", c)
	}
	e.leafRole[c.Src] = ctrl.Up{}
	e.leafRole[c.Dst] = ctrl.Up{}
	e.dstOf[c.Src] = -1
	i := int(e.commPos[c.Src])
	last := len(e.set.Comms) - 1
	e.set.Comms[i] = e.set.Comms[last]
	e.commPos[e.set.Comms[i].Src] = int32(i)
	e.set.Comms = e.set.Comms[:last]
	e.commPos[c.Src] = -1
	e.shiftLoads(c, -1)
	e.markDirty(c)
	return nil
}

// shiftLoads adjusts the persistent per-edge load table along c's tree path
// by delta (±1), keeping the load histogram and running width current. The
// counting is exactly WidthInto's, so curWidth tracks what a from-scratch
// WidthInto would report.
func (e *Engine) shiftLoads(c comm.Comm, delta int) {
	_ = e.tree.EachPathEdge(c.Src, c.Dst, func(ed topology.Edge) {
		i := e.tree.EdgeIndex(ed)
		v := e.widthScratch[i]
		e.loadHist[v]--
		v += delta
		e.widthScratch[i] = v
		e.loadHist[v]++
		if v > e.curWidth {
			e.curWidth = v
		}
	})
}

// settleWidth shrinks curWidth past emptied histogram buckets after
// removals (additions bump it in shiftLoads).
func (e *Engine) settleWidth() {
	for e.curWidth > 0 && e.loadHist[e.curWidth] == 0 {
		e.curWidth--
	}
}

// rebuildLoadHist derives the load histogram and running width from the
// edge loads WidthInto left behind. Runs once after each full run
// (histDirty); every Apply afterwards maintains both incrementally. An
// edge's load is bounded by its subtree's leaf count ≤ N/2, so N+1 buckets
// always suffice.
func (e *Engine) rebuildLoadHist() {
	if e.loadHist == nil {
		e.loadHist = make([]int, e.set.N+1)
	}
	for i := range e.loadHist {
		e.loadHist[i] = 0
	}
	w := 0
	for _, v := range e.widthScratch {
		e.loadHist[v]++
		if v > w {
			w = v
		}
	}
	e.curWidth = w
	e.histDirty = false
}

// markDirty stamps every switch on the root paths above c's endpoints into
// the current epoch's dirty set. Paths share suffixes, so the walk stops at
// the first already-stamped ancestor.
func (e *Engine) markDirty(c comm.Comm) {
	e.markDirtyLeaf(c.Src)
	e.markDirtyLeaf(c.Dst)
}

func (e *Engine) markDirtyLeaf(pe int) {
	u := e.tree.Parent(e.tree.Leaf(pe))
	for {
		if e.dirtyMark[u] == e.dirtyEpoch {
			return // this ancestor, hence everything above, is already dirty
		}
		e.dirtyMark[u] = e.dirtyEpoch
		e.dirtyList = append(e.dirtyList, u)
		if u == e.tree.Root() {
			return
		}
		u = e.tree.Parent(u)
	}
}

// deltaPhase1 re-runs Steps 1.1–1.3 over the dirty switches only, reading
// and writing the pristine snapshot. A switch off every dirty root path has
// an unchanged subtree, hence an unchanged C_S word and matchedSub total,
// so confining Match to the dirty set reproduces a full phase1 exactly.
// Fault injection sees the same per-word hook as the full pass.
func (e *Engine) deltaPhase1() error {
	// Heap numbering gives every child a larger id than its parent, so
	// descending id order is a valid bottom-up order over the dirty set.
	slices.SortFunc(e.dirtyList, func(a, b topology.Node) int { return int(b) - int(a) })
	for _, u := range e.dirtyList {
		lc, rc := e.tree.Left(u), e.tree.Right(u)
		left, err := e.upWordFromState(e.p1Stored, lc)
		if err != nil {
			return err
		}
		right, err := e.upWordFromState(e.p1Stored, rc)
		if err != nil {
			return err
		}
		st := ctrl.Match(left, right)
		e.p1Stored[u] = st
		m := st.M
		if e.tree.IsSwitch(lc) {
			m += e.p1MatchedSub[lc]
		}
		if e.tree.IsSwitch(rc) {
			m += e.p1MatchedSub[rc]
		}
		e.p1MatchedSub[u] = m
	}
	return nil
}

// snapshotPhase1 retains the post-Phase-1 stored words and matchedSub
// totals for the delta path, and flags the width bookkeeping for a rebuild
// (widthScratch now holds this set's loads). Called by run once Phase 1
// is done.
func (e *Engine) snapshotPhase1() {
	if e.p1Stored == nil {
		e.p1Stored = make([]ctrl.Stored, len(e.stored))
		e.p1MatchedSub = make([]int, len(e.matchedSub))
	}
	copy(e.p1Stored, e.stored)
	copy(e.p1MatchedSub, e.matchedSub)
	e.histDirty = true
}
