// Package lab is the perf lab: an analytical twin of the CST engines plus
// the sweeps that test it against the engines themselves.
//
// The twin (Predict) computes what a run must count from the paper's
// closed forms — Theorems 4/5 (a width-w oriented well-nested set
// schedules in exactly w rounds), the Theorem 5 efficiency claim (one
// control word per link per wave: 2N−2 words in Phase 1 and per Phase 2
// round) and the Theorem 8 power envelope (O(1) configuration changes per
// switch, audited as 3·(log₂N+2) units on adversarial inputs).
//
// The sweep runner (RunSweep) drives the padr, sim, online and hybrid
// engines over a (N, w) grid and scores every count against the twin:
// theorem-exact quantities (rounds, control words) must match bit for bit,
// bounded ones (power units, hybrid rounds) must stay under their bound.
// Wall-clock latency is measured and reported, never judged — no theorem
// predicts it. The delta sweep (RunDeltaSweep) does the same for the
// incremental scheduler: rounds must equal a from-scratch run, and the
// gated overlap points must meet the apply/scratch speedup bound.
package lab

import (
	"fmt"

	"cst/internal/audit"
)

// Engines the lab can drive.
const (
	EnginePADR   = "padr"
	EngineSim    = "sim"
	EngineOnline = "online"
	// EngineHybrid is the composite planner for arbitrary (possibly
	// non-well-nested) sets: decompose, peel well-nested batches, color
	// the residual. It has no closed-form round count — its guarantee is
	// an inequality (never worse than pure FirstFit coloring), so its
	// rounds are scored against a bound, not an exact match.
	EngineHybrid = "hybrid"
)

// Workload families the lab sweeps. All are deterministic for a given
// (N, w, seed), so a prediction names an exact input.
const (
	// WorkloadChain is comm.NestedChain: w fully nested root-crossing
	// communications (the paper's Fig. 2-style worst case for width).
	WorkloadChain = "chain"
	// WorkloadSplit is comm.SplitChain: the churn-adversarial chain split
	// across the root's grandchild subtrees.
	WorkloadSplit = "split"
	// WorkloadRandom is comm.RandomWellNestedWidth with the sweep seed:
	// planted width w plus random well-nested filler.
	WorkloadRandom = "random"
	// WorkloadBitrev is comm.BitReversal: the crossing-heavy FFT pairing
	// (w is ignored — the permutation fixes the set). Hybrid-only.
	WorkloadBitrev = "bitrev"
	// WorkloadCrossing is comm.CrossingPairs: w pairwise-crossing
	// communications with alternating orientations. Hybrid-only.
	WorkloadCrossing = "crossing"
)

// Prediction is the analytical twin's closed-form forecast for one run.
// Rounds and word counts are theorem-exact: the engines must match them
// bit for bit. MaxUnitsBound is an envelope: measured units at the hottest
// switch must not exceed it.
type Prediction struct {
	// Rounds is Theorem 4/5: exactly the set's link width.
	Rounds int
	// Phase1Words is the Theorem 5 efficiency budget: one convergecast
	// word per link, 2N−2. Zero for engines that do not expose word
	// counts (online).
	Phase1Words int
	// Phase2Words is one broadcast word per link per round: Rounds·(2N−2).
	// Zero when Phase1Words is zero.
	Phase2Words int
	// MaxUnitsBound is the Theorem 8 power envelope for the hottest
	// switch: 6 units on the deterministic chain workloads (measured
	// tight in experiments E2/E3), 3·(log₂N+2) on random sets (the
	// audit package's adaptive Greedy-rule envelope).
	MaxUnitsBound int
}

// Predict returns the twin's forecast for scheduling one width-w oriented
// well-nested set on an N-leaf tree with the given engine and workload
// family. It errors on an engine or workload the lab does not drive, on an
// N that is not a power of two >= 2, and on w < 1.
func Predict(engine, workload string, n, w int) (Prediction, error) {
	switch engine {
	case EnginePADR, EngineSim, EngineOnline, EngineHybrid:
	default:
		return Prediction{}, fmt.Errorf("lab: unknown engine %q", engine)
	}
	switch workload {
	case WorkloadChain, WorkloadSplit, WorkloadRandom, WorkloadBitrev, WorkloadCrossing:
	default:
		return Prediction{}, fmt.Errorf("lab: unknown workload %q", workload)
	}
	if n < 2 || n&(n-1) != 0 {
		return Prediction{}, fmt.Errorf("lab: N=%d is not a power of two >= 2", n)
	}
	if w < 1 {
		return Prediction{}, fmt.Errorf("lab: width %d < 1", w)
	}
	p := Prediction{Rounds: w}
	switch engine {
	case EnginePADR, EngineSim:
		p.Phase1Words = 2*n - 2
		p.Phase2Words = w * (2*n - 2)
	}
	switch workload {
	case WorkloadChain, WorkloadSplit:
		// E2/E3: every chain-family run holds the hottest switch at or
		// under two full configuration builds (2 × 3 units).
		p.MaxUnitsBound = 6
	default:
		p.MaxUnitsBound = audit.DefaultUnitsBound(n)
	}
	return p, nil
}
