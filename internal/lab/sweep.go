package lab

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"cst/internal/comm"
	"cst/internal/hybrid"
	"cst/internal/online"
	"cst/internal/padr"
	"cst/internal/sim"
	"cst/internal/stats"
	"cst/internal/topology"
)

// SweepConfig describes a parameter sweep.
type SweepConfig struct {
	// Ns and Ws span the grid (every N must be a power of two >= 4·max W
	// for the split workload to fit).
	Ns, Ws []int
	// Engines selects which engines run each grid point.
	Engines []string
	// Workload is the set family (WorkloadChain, WorkloadSplit,
	// WorkloadRandom).
	Workload string
	// Reps is how many timed runs aggregate into one measurement
	// (median); <= 0 selects 5.
	Reps int
	// Seed drives the random workload.
	Seed int64
}

// Measurement is one grid point's measured quantities.
type Measurement struct {
	Engine   string
	Workload string
	// N is the tree's leaf count, W the set's link width, M the number of
	// communications in the set (M == W for the chain families).
	N, W, M int
	// Rounds, Phase1Words, Phase2Words and MaxUnits are the engine's
	// reported counts (words are 0 where the engine does not expose
	// them).
	Rounds      int
	Phase1Words int
	Phase2Words int
	MaxUnits    int
	// RoundsBound is the hybrid engine's measured comparator: the pure
	// FirstFit round count on the same decomposition, which the composite
	// plan must not exceed. Zero for every other engine, and the switch
	// that flips the row from theorem-exact scoring to bound scoring.
	RoundsBound int
	// LatencyNS is the median wall-clock schedule time over Reps runs;
	// LatSamples holds every rep.
	LatencyNS  float64
	LatSamples []float64
}

// Row is one grid point's measured-vs-predicted comparison.
type Row struct {
	Measurement
	Pred Prediction
	// LatPredictedNS and LatBandNS come from the engine's fitted latency
	// model; WithinBand reports |measured − predicted| <= band.
	LatPredictedNS float64
	LatBandNS      float64
	WithinBand     bool
	// ExactOK reports that every theorem-exact quantity (rounds, words)
	// matched the prediction, and measured units stayed under the bound.
	ExactOK bool
}

// SweepResult is a completed sweep: rows plus the fitted per-engine
// latency models.
type SweepResult struct {
	Config SweepConfig
	Rows   []Row
	Models map[string]*LatencyModel
}

// RunSweep measures every (engine, N, w) grid point, fits each engine's
// latency model over its own grid, and scores measured vs predicted.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	if cfg.Reps <= 0 {
		cfg.Reps = 5
	}
	if cfg.Workload == "" {
		cfg.Workload = WorkloadChain
	}
	if len(cfg.Engines) == 0 {
		cfg.Engines = []string{EnginePADR, EngineSim, EngineOnline}
	}
	var ms []Measurement
	for _, engine := range cfg.Engines {
		for _, n := range cfg.Ns {
			for _, w := range cfg.Ws {
				m, err := measure(engine, cfg.Workload, n, w, cfg.Reps, cfg.Seed)
				if err != nil {
					return nil, fmt.Errorf("lab: %s N=%d w=%d: %w", engine, n, w, err)
				}
				ms = append(ms, *m)
			}
		}
	}
	res := &SweepResult{Config: cfg, Models: map[string]*LatencyModel{}}
	for _, engine := range cfg.Engines {
		model, err := FitLatency(engine, ms)
		if err != nil {
			return nil, err
		}
		res.Models[engine] = model
	}
	for _, m := range ms {
		model := res.Models[m.Engine]
		row := Row{
			Measurement:    m,
			Pred:           Predict(m.Engine, m.Workload, m.N, m.W),
			LatPredictedNS: model.PredictNS(m.N, m.W, m.M),
		}
		row.LatBandNS = model.BandNS(row.LatPredictedNS)
		row.WithinBand = abs(m.LatencyNS-row.LatPredictedNS) <= row.LatBandNS
		if m.RoundsBound > 0 {
			// Bound scoring (hybrid): no closed form predicts the
			// composite round count, but it must never exceed the pure
			// FirstFit comparator, and each switch rebuilds at most once
			// per round (3 units per build) — so 3·bound envelopes the
			// hottest switch.
			row.ExactOK = m.Rounds <= m.RoundsBound && m.MaxUnits <= 3*m.RoundsBound
		} else {
			row.ExactOK = m.Rounds == row.Pred.Rounds &&
				(row.Pred.Phase1Words == 0 || m.Phase1Words == row.Pred.Phase1Words) &&
				(row.Pred.Phase2Words == 0 || m.Phase2Words == row.Pred.Phase2Words) &&
				m.MaxUnits <= row.Pred.MaxUnitsBound
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// buildSet constructs the workload's communication set.
func buildSet(workload string, n, w int, seed int64) (*comm.Set, error) {
	switch workload {
	case WorkloadChain:
		return comm.NestedChain(n, w)
	case WorkloadSplit:
		return comm.SplitChain(n, w)
	case WorkloadRandom:
		rng := rand.New(rand.NewSource(seed))
		return comm.RandomWellNestedWidth(rng, n, w+n/16, w)
	case WorkloadBitrev:
		return comm.BitReversal(n)
	case WorkloadCrossing:
		return comm.CrossingPairs(n, w)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
}

// measure runs one grid point: Reps timed schedules of the same set,
// reporting the engine's counts from the final run and the median latency.
func measure(engine, workload string, n, w, reps int, seed int64) (*Measurement, error) {
	tree, err := topology.New(n)
	if err != nil {
		return nil, err
	}
	set, err := buildSet(workload, n, w, seed)
	if err != nil {
		return nil, err
	}
	// Each rep consumes its own clone so no engine-side mutation of the
	// set can leak between reps; clones are cut outside the timed region.
	clones := make([]*comm.Set, reps)
	for i := range clones {
		clones[i] = set.Clone()
	}
	m := &Measurement{Engine: engine, Workload: workload, N: n, W: w, M: set.Len()}

	switch engine {
	case EnginePADR:
		eng, err := padr.New(tree, set.Clone())
		if err != nil {
			return nil, err
		}
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := eng.Reset(clones[i]); err != nil {
				return nil, err
			}
			res, err := eng.Run()
			if err != nil {
				return nil, err
			}
			m.LatSamples = append(m.LatSamples, float64(time.Since(t0).Nanoseconds()))
			m.Rounds = res.Rounds
			m.Phase1Words = res.UpWords
			m.Phase2Words = res.DownWords
			m.MaxUnits = res.Report.MaxUnits()
		}

	case EngineSim:
		fabric := sim.NewFabric(tree)
		defer fabric.Close()
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			res, err := fabric.Run(clones[i])
			if err != nil {
				return nil, err
			}
			m.LatSamples = append(m.LatSamples, float64(time.Since(t0).Nanoseconds()))
			m.Rounds = res.Rounds
			m.Phase1Words = res.Phase1Messages
			m.Phase2Words = res.Phase2Messages
			m.MaxUnits = res.Report.MaxUnits()
		}

	case EngineOnline:
		for i := 0; i < reps; i++ {
			osim, err := online.New(n)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			for _, c := range clones[i].Comms {
				if err := osim.Submit(c); err != nil {
					return nil, err
				}
			}
			if err := osim.Drain(); err != nil {
				return nil, err
			}
			st := osim.Finish()
			m.LatSamples = append(m.LatSamples, float64(time.Since(t0).Nanoseconds()))
			if st.Leftover != 0 || len(st.Completed) != set.Len() {
				return nil, fmt.Errorf("online run lost requests: %d of %d completed", len(st.Completed), set.Len())
			}
			m.Rounds = st.Rounds
			m.MaxUnits = st.Report.MaxUnits()
		}

	case EngineHybrid:
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			plan, err := hybrid.Schedule(tree, clones[i])
			if err != nil {
				return nil, err
			}
			m.LatSamples = append(m.LatSamples, float64(time.Since(t0).Nanoseconds()))
			m.Rounds = plan.Rounds
			m.RoundsBound = plan.FirstFitRounds
			m.MaxUnits = plan.Report.MaxUnits()
		}

	default:
		return nil, fmt.Errorf("unknown engine %q", engine)
	}
	m.LatencyNS = stats.Median(m.LatSamples)
	return m, nil
}

// BenchName is the ledger series key for one grid point's metric.
func BenchName(engine, workload string, n, w int, metric string) string {
	return fmt.Sprintf("lab/%s/%s/N=%d/w=%d/%s", engine, workload, n, w, metric)
}

// Entries converts a sweep into ledger entries: theorem-exact rounds and
// word counts, bounded power units, and banded latency. The caller stamps
// provenance via Stamp.Apply.
func (r *SweepResult) Entries() []Entry {
	var out []Entry
	for _, row := range r.Rows {
		name := func(metric string) string {
			return BenchName(row.Engine, row.Workload, row.N, row.W, metric)
		}
		if row.RoundsBound > 0 {
			// Hybrid rows: rounds are bounded by the FirstFit comparator,
			// not predicted by a theorem; units by 3·bound (one rebuild
			// per switch per round).
			out = append(out, Entry{Bench: name("rounds"), Unit: "rounds",
				Value: float64(row.Rounds), Predicted: float64(row.RoundsBound), Bound: true})
			out = append(out, Entry{Bench: name("max_units"), Unit: "units",
				Value: float64(row.MaxUnits), Predicted: float64(3 * row.RoundsBound), Bound: true})
		} else {
			out = append(out, Entry{Bench: name("rounds"), Unit: "rounds",
				Value: float64(row.Rounds), Predicted: float64(row.Pred.Rounds), Exact: true})
			if row.Pred.Phase1Words > 0 {
				out = append(out, Entry{Bench: name("phase1_words"), Unit: "words",
					Value: float64(row.Phase1Words), Predicted: float64(row.Pred.Phase1Words), Exact: true})
				out = append(out, Entry{Bench: name("phase2_words"), Unit: "words",
					Value: float64(row.Phase2Words), Predicted: float64(row.Pred.Phase2Words), Exact: true})
			}
			out = append(out, Entry{Bench: name("max_units"), Unit: "units",
				Value: float64(row.MaxUnits), Predicted: float64(row.Pred.MaxUnitsBound), Bound: true})
		}
		out = append(out, Entry{Bench: name("latency"), Unit: "ns/op",
			Value: row.LatencyNS, Samples: len(row.LatSamples), Predicted: row.LatPredictedNS})
	}
	return out
}

// Table renders the measured-vs-predicted comparison as markdown.
func (r *SweepResult) Table() string {
	tab := stats.NewTable("engine", "N", "w", "rounds m/p", "p1 words m/p", "p2 words m/p",
		"units m/bound", "latency µs", "predicted µs", "band ±µs", "verdict")
	for _, row := range r.Rows {
		p1 := "-"
		p2 := "-"
		if row.Pred.Phase1Words > 0 {
			p1 = fmt.Sprintf("%d/%d", row.Phase1Words, row.Pred.Phase1Words)
			p2 = fmt.Sprintf("%d/%d", row.Phase2Words, row.Pred.Phase2Words)
		}
		verdict := "ok"
		if !row.ExactOK {
			verdict = "EXACT-MISMATCH"
		} else if !row.WithinBand {
			verdict = "OUT-OF-BAND"
		}
		roundsPred, unitsBound := row.Pred.Rounds, row.Pred.MaxUnitsBound
		if row.RoundsBound > 0 {
			roundsPred, unitsBound = row.RoundsBound, 3*row.RoundsBound
		}
		tab.AddRow(row.Engine, row.N, row.W,
			fmt.Sprintf("%d/%d", row.Rounds, roundsPred), p1, p2,
			fmt.Sprintf("%d/%d", row.MaxUnits, unitsBound),
			row.LatencyNS/1e3, row.LatPredictedNS/1e3, row.LatBandNS/1e3, verdict)
	}
	var b strings.Builder
	b.WriteString(tab.Markdown())
	b.WriteString("\nFitted models:\n")
	names := make([]string, 0, len(r.Models))
	for name := range r.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %s\n", r.Models[name])
	}
	return b.String()
}

// Ok reports whether every row's theorem-exact quantities matched and
// every latency landed inside its band.
func (r *SweepResult) Ok() bool {
	for _, row := range r.Rows {
		if !row.ExactOK || !row.WithinBand {
			return false
		}
	}
	return true
}
