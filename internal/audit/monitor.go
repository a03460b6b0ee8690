package audit

import (
	"fmt"
	"math/bits"
)

// Kind names the paper invariant (or failure class) a Violation reports
// against.
type Kind string

// The monitored invariants. Each kind names the paper statement it pins.
const (
	// KindRoundCount fires when a completed run took a number of rounds
	// different from the set's link width (Theorems 4–5: a width-w set
	// schedules in exactly w rounds).
	KindRoundCount Kind = "theorem-4/5:round-count"
	// KindSwitchUnits fires when one switch spent more power units over a
	// run than the configured bound (Theorem 8: O(1) configuration changes
	// per switch; each change costs at most 3 units).
	KindSwitchUnits Kind = "theorem-8:switch-units"
	// KindPortAlternations fires when one output port's driver alternated
	// more often than the configured bound (Lemmas 6–7: each port serves
	// two contiguous demand runs, so its alternation count is constant).
	KindPortAlternations Kind = "lemma-6/7:port-alternations"
	// KindPhase1Budget fires when the Phase 1 convergecast carried a number
	// of words different from the one-word-per-link budget 2N−2 (Theorem
	// 5's constant-words efficiency claim).
	KindPhase1Budget Kind = "phase-1:word-budget"
	// KindPhase2Budget fires when a Phase 2 round carried a number of
	// control words different from the one-word-per-link broadcast budget
	// 2N−2.
	KindPhase2Budget Kind = "phase-2:word-budget"
	// KindHybridBound fires when a hybrid run took more rounds than the
	// bound its planner declared (the joint first-fit's round count,
	// carried in run.done's Width field). The plan may legitimately run
	// *under* the bound — padr or Exact can beat first-fit — so only the
	// upper direction is a violation.
	KindHybridBound Kind = "hybrid:round-bound"
	// KindRunError mirrors a traced run.error event: the engine itself
	// declared the run dead (typically a typed *fault.Error naming the
	// dying switch and round — the chaos-visibility path).
	KindRunError Kind = "run:error"
	// KindMeterMismatch fires when the replayed ledger disagrees with the
	// engine's own cumulative power meters (CrossCheck).
	KindMeterMismatch Kind = "ledger:meter-mismatch"
	// KindTruncatedRun fires when a run's events stop without a run.done or
	// run.error — a stalled engine, a killed process, or a trace ring that
	// evicted the tail.
	KindTruncatedRun Kind = "run:truncated"
)

// Violation is one detected breach of a paper invariant. It implements
// error so monitors can surface violations through ordinary error plumbing.
type Violation struct {
	// Kind names the broken invariant.
	Kind Kind
	// Engine is the engine whose run broke it ("padr", "sim", "online").
	Engine string
	// Run is the auditor-assigned index of the offending run.
	Run int64
	// Round is the offending Phase 2 round, -1 when run-scoped or Phase 1.
	Round int
	// Node is the implicated tree node, 0 when not node-scoped.
	Node int
	// Got and Want quantify the breach where meaningful (rounds vs width,
	// units vs bound, ...); 0/0 otherwise.
	Got, Want int64
	// Msg is the human-readable account.
	Msg string
}

// Error renders e.g.
// "audit: theorem-8:switch-units: padr run 3 round 2 node 5: 9 > bound 6: ...".
func (v Violation) Error() string {
	s := fmt.Sprintf("audit: %s: %s run %d", v.Kind, v.Engine, v.Run)
	if v.Round >= 0 {
		s += fmt.Sprintf(" round %d", v.Round)
	}
	if v.Node != 0 {
		s += fmt.Sprintf(" node %d", v.Node)
	}
	return s + ": " + v.Msg
}

// Limits bounds the theorem monitors. The zero value selects defaults that
// hold on every clean run the repo's engines produce: the paper proves O(1)
// per-switch spend, but the Greedy selection rule's measured envelope grows
// ≈log N on adversarial random sets (DESIGN.md §6, experiments E12/E14), so
// the default per-switch bounds scale with log2 of the tree size rather
// than a constant. Set explicit values to audit against the strict
// conservative-rule constants.
type Limits struct {
	// RoundSlack is how many rounds beyond the width a run may take before
	// the Theorem 4/5 monitor fires (0 for the Greedy rule, which is
	// round-exact; the Conservative rule needs slack — see
	// padr.Conservative).
	RoundSlack int
	// MaxUnitsPerSwitch bounds one switch's power units per run; <= 0
	// selects DefaultUnitsBound(leaves).
	MaxUnitsPerSwitch int
	// MaxAlternationsPerPort bounds one output port's driver alternations
	// per run; <= 0 selects DefaultAlternationsBound(leaves).
	MaxAlternationsPerPort int
}

// DefaultUnitsBound is the default Theorem 8 envelope for a tree with the
// given number of leaves: 3 units per configuration change times the
// measured worst-case ≈(log2 N + 2) changes of the Greedy rule.
func DefaultUnitsBound(leaves int) int {
	return 3 * (log2ceil(leaves) + 2)
}

// DefaultAlternationsBound is the default Lemma 6–7 per-port envelope for a
// tree with the given number of leaves.
func DefaultAlternationsBound(leaves int) int {
	return log2ceil(leaves) + 2
}

// log2ceil returns ceil(log2(n)), 0 for n <= 1.
func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// unitsBound resolves the effective per-switch unit bound.
func (l Limits) unitsBound(leaves int) int {
	if l.MaxUnitsPerSwitch > 0 {
		return l.MaxUnitsPerSwitch
	}
	return DefaultUnitsBound(leaves)
}

// altBound resolves the effective per-port alternation bound.
func (l Limits) altBound(leaves int) int {
	if l.MaxAlternationsPerPort > 0 {
		return l.MaxAlternationsPerPort
	}
	return DefaultAlternationsBound(leaves)
}

// checkRun runs every theorem monitor against a finished run and returns
// the violations. Monitors needing the tree size are skipped when the trace
// never revealed it (leaves == 0: no Phase 2 words were observed).
func checkRun(r *RunAudit, lim Limits) []Violation {
	var out []Violation
	v := func(kind Kind, round, node int, got, want int64, format string, args ...any) {
		out = append(out, Violation{
			Kind: kind, Engine: r.Engine, Run: r.Index,
			Round: round, Node: node, Got: got, Want: want,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	if r.Err != "" {
		v(KindRunError, r.ErrRound, r.ErrNode, 0, 0, "engine reported the run dead: %s", r.Err)
		// The run died; the remaining monitors would only re-report the
		// damage (a half-finished schedule always misses its width).
		return out
	}
	if !r.done {
		v(KindTruncatedRun, -1, 0, 0, 0,
			"trace ends mid-run: %d rounds observed, no run.done or run.error", r.Rounds)
		return out
	}

	// Hybrid runs obey a different contract: rounds are bounded above by
	// the planner's declared joint first-fit round count (run.done Width),
	// not pinned to the set's link width, and the word-budget/per-switch
	// monitors below do not apply — the hybrid trace carries switch.config
	// events only (no Phase 2 words), so the leaf count inferred from the
	// deepest traced node would be wrong.
	if r.Engine == "hybrid" {
		if r.Width > 0 && r.Rounds > r.Width {
			v(KindHybridBound, -1, 0, int64(r.Rounds), int64(r.Width),
				"composite schedule took %d rounds, declared bound %d", r.Rounds, r.Width)
		}
		return out
	}

	// Theorems 4–5: a width-w set schedules in exactly w rounds (Greedy);
	// the Conservative rule is allowed RoundSlack extra.
	if r.Width > 0 && (r.Rounds > r.Width+lim.RoundSlack || r.Rounds < r.Width) {
		v(KindRoundCount, -1, 0, int64(r.Rounds), int64(r.Width),
			"scheduled in %d rounds for a width-%d set", r.Rounds, r.Width)
	}

	// Phase 1 word budget: exactly one convergecast word per link.
	if r.Leaves > 0 && r.Phase1Words > 0 && r.Phase1Words != 2*r.Leaves-2 {
		v(KindPhase1Budget, -1, 0, int64(r.Phase1Words), int64(2*r.Leaves-2),
			"Phase 1 carried %d words on a %d-leaf tree (budget %d)",
			r.Phase1Words, r.Leaves, 2*r.Leaves-2)
	}

	// Phase 2 word budget: each broadcast wave is one word per link.
	if r.Leaves > 0 {
		for _, rl := range r.Ledger.Rounds {
			if rl.Words != 0 && rl.Words != 2*r.Leaves-2 {
				v(KindPhase2Budget, rl.Round, 0, int64(rl.Words), int64(2*r.Leaves-2),
					"round carried %d words on a %d-leaf tree (budget %d)",
					rl.Words, r.Leaves, 2*r.Leaves-2)
			}
		}
	}

	// Theorem 8 and Lemmas 6–7: per-switch spend and per-port alternations.
	if r.Leaves > 0 {
		ub, ab := lim.unitsBound(r.Leaves), lim.altBound(r.Leaves)
		for _, sl := range r.Ledger.SortedSwitches() {
			if sl.Units > ub {
				v(KindSwitchUnits, -1, sl.Node, int64(sl.Units), int64(ub),
					"switch spent %d power units (bound %d for %d leaves)",
					sl.Units, ub, r.Leaves)
			}
			for port := SideL; port <= SideP; port++ {
				if a := sl.PortAlternations[port]; a > ab {
					v(KindPortAlternations, -1, sl.Node, int64(a), int64(ab),
						"output %s alternated drivers %d times (bound %d for %d leaves)",
						[4]string{"-", "l", "r", "p"}[port], a, ab, r.Leaves)
				}
			}
		}
	}
	return out
}
