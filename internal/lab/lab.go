// Package lab is the hypothesis-driven perf lab: an analytical twin of the
// CST engines plus the machinery to test it against measurements and to
// keep a time series of those measurements honest.
//
// The twin (Predict, LatencyModel) computes what a run *should* cost from
// the paper's closed forms — Theorems 4/5 (a width-w oriented well-nested
// set schedules in exactly w rounds), the Theorem 5 efficiency claim (one
// control word per link per wave: 2N−2 words in Phase 1 and per Phase 2
// round) and the Theorem 8 power envelope (O(1) configuration changes per
// switch, audited as 3·(log₂N+2) units on adversarial inputs) — plus
// per-operation constants fitted by least squares for wall-clock latency,
// which no theorem supplies.
//
// The sweep runner (RunSweep) drives the padr, sim and online engines over
// a (N, w) grid, compares measured against predicted, and splits the
// quantities into two classes: theorem-exact (rounds, control words — any
// deviation is a bug, not noise) and fitted (latency — judged against a
// noise band derived from the fit's own residuals).
//
// The ledger (Entry, Append, ReadLedger) is the schema-versioned JSONL
// time series every measurement lands in, stamped with machine
// fingerprint, git SHA and timestamp so runs from different hosts and
// commits never silently pollute each other's noise bands. Check replays
// the ledger and exit-codes any regression beyond the band fitted from
// history — the CI gate that makes "this PR is faster" a measured claim.
package lab

import (
	"fmt"
	"math"

	"cst/internal/audit"
	"cst/internal/stats"
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
	// rounds ledger entry is a bound, not an exact match.
	EngineHybrid = "hybrid"
	// EngineDelta is the incremental scheduler: padr.Engine.ApplyRounds
	// over a long-lived session set. Its cost model is the point of the
	// delta path — work scales with |delta|·log₂N (dirty root paths), not
	// with N like a from-scratch run. Measurements come from RunDeltaSweep.
	EngineDelta = "delta"
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
// family.
func Predict(engine, workload string, n, w int) Prediction {
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
	return p
}

// LatencyModel is the fitted half of the twin: wall-clock nanoseconds as a
// linear function of closed-form work terms, with per-operation constants
// estimated by least squares over a calibration sweep. The residuals of
// that fit define the noise band a measurement is judged against.
type LatencyModel struct {
	// Engine names the engine the constants belong to.
	Engine string
	// Coeffs are the fitted per-operation constants, one per feature.
	Coeffs []float64
	// FeatureNames documents the model, e.g. ["1", "words", "waves"].
	FeatureNames []string
	// ResidMax and ResidMAD summarize |measured − predicted| over the
	// calibration points.
	ResidMax, ResidMAD float64
}

// Band parameters: a measurement is within the model's noise band when
// |measured − predicted| ≤ max(BandResidK·ResidMax, BandRel·predicted,
// BandFloorNS). The residual term guarantees the calibration points
// themselves sit inside the band; the relative and absolute floors keep
// the band honest on extrapolated points and tiny latencies.
const (
	BandResidK  = 1.5
	BandRel     = 0.25
	BandFloorNS = 20_000
)

// latFeatures is the twin's work model: the words term is the total
// control-word traffic (2N−2)·(w+1) — Phase 1 plus w Phase 2 waves — and
// is the dominant cost for the sequential engine. The concurrent sim adds
// a per-wave barrier term (w+1 goroutine rendezvous), and the online
// batcher adds a per-request admission term (m submissions).
func latFeatures(engine string, n, w, m int) []float64 {
	words := float64((2*n - 2) * (w + 1))
	switch engine {
	case EngineSim:
		return []float64{1, words, float64(w + 1)}
	case EngineOnline, EngineHybrid:
		return []float64{1, words, float64(m)}
	case EngineDelta:
		// The incremental apply re-floats control words only along the
		// mutated communications' root paths: m is |delta| and each dirty
		// path is O(log N) nodes, so the work term is m·log₂N — crucially
		// independent of the 2N−2 full-tree word count above.
		return []float64{1, float64(m) * math.Log2(float64(n))}
	default:
		return []float64{1, words}
	}
}

// latFeatureNames mirrors latFeatures.
func latFeatureNames(engine string) []string {
	switch engine {
	case EngineSim:
		return []string{"1", "words", "waves"}
	case EngineOnline, EngineHybrid:
		return []string{"1", "words", "requests"}
	case EngineDelta:
		return []string{"1", "delta·log2N"}
	default:
		return []string{"1", "words"}
	}
}

// FitLatency estimates the per-operation constants for one engine from
// calibration measurements. It needs at least as many points as the
// engine's feature count (2 or 3).
func FitLatency(engine string, ms []Measurement) (*LatencyModel, error) {
	var x [][]float64
	var y []float64
	for _, m := range ms {
		if m.Engine != engine {
			continue
		}
		x = append(x, latFeatures(engine, m.N, m.W, m.M))
		y = append(y, m.LatencyNS)
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("lab: no measurements for engine %q", engine)
	}
	coeffs, err := stats.LeastSquares(x, y)
	if err != nil {
		return nil, fmt.Errorf("lab: fitting %s latency: %w", engine, err)
	}
	m := &LatencyModel{Engine: engine, Coeffs: coeffs, FeatureNames: latFeatureNames(engine)}
	resids := make([]float64, len(x))
	for i := range x {
		resids[i] = abs(y[i] - dot(coeffs, x[i]))
		if resids[i] > m.ResidMax {
			m.ResidMax = resids[i]
		}
	}
	m.ResidMAD = stats.Median(resids)
	return m, nil
}

// PredictNS returns the model's latency forecast in nanoseconds (clamped
// at 0: a fitted intercept can push tiny inputs negative).
func (m *LatencyModel) PredictNS(n, w, mm int) float64 {
	p := dot(m.Coeffs, latFeatures(m.Engine, n, w, mm))
	if p < 0 {
		return 0
	}
	return p
}

// BandNS returns the noise band half-width around a prediction.
func (m *LatencyModel) BandNS(predicted float64) float64 {
	band := BandResidK * m.ResidMax
	if rel := BandRel * predicted; rel > band {
		band = rel
	}
	if band < BandFloorNS {
		band = BandFloorNS
	}
	return band
}

// String renders the fitted model, e.g.
// "padr: 12034 + 3.1·words (resid max 8123 ns)".
func (m *LatencyModel) String() string {
	s := m.Engine + ": "
	for i, c := range m.Coeffs {
		if i > 0 {
			s += " + "
		}
		if m.FeatureNames[i] == "1" {
			s += fmt.Sprintf("%.0f", c)
		} else {
			s += fmt.Sprintf("%.2f·%s", c, m.FeatureNames[i])
		}
	}
	return s + fmt.Sprintf(" ns (resid max %.0f, mad %.0f)", m.ResidMax, m.ResidMAD)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
