package lab

import (
	"fmt"
	"math/rand"
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
	// LatencyNS is the median wall-clock schedule time over Reps runs. It
	// is reported, not scored.
	LatencyNS float64
}

// Row is one grid point's measured-vs-predicted comparison.
type Row struct {
	Measurement
	Pred Prediction
	// ExactOK reports that every theorem-exact quantity (rounds, words)
	// matched the prediction, and measured units stayed under the bound.
	ExactOK bool
}

// SweepResult is a completed sweep.
type SweepResult struct {
	Config SweepConfig
	Rows   []Row
}

// RunSweep measures every (engine, N, w) grid point and scores measured vs
// predicted. A grid point the twin cannot predict (unknown engine or
// workload, N not a power of two, w < 1) is an error.
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
	res := &SweepResult{Config: cfg}
	for _, engine := range cfg.Engines {
		for _, n := range cfg.Ns {
			for _, w := range cfg.Ws {
				pred, err := Predict(engine, cfg.Workload, n, w)
				if err != nil {
					return nil, err
				}
				m, err := measure(engine, cfg.Workload, n, w, cfg.Reps, cfg.Seed)
				if err != nil {
					return nil, fmt.Errorf("lab: %s N=%d w=%d: %w", engine, n, w, err)
				}
				res.Rows = append(res.Rows, score(*m, pred))
			}
		}
	}
	return res, nil
}

// score compares one measurement against its prediction.
func score(m Measurement, pred Prediction) Row {
	row := Row{Measurement: m, Pred: pred}
	if m.RoundsBound > 0 {
		// Bound scoring (hybrid): no closed form predicts the composite
		// round count, but it must never exceed the pure FirstFit
		// comparator, and each switch rebuilds at most once per round (3
		// units per build) — so 3·bound envelopes the hottest switch.
		row.ExactOK = m.Rounds <= m.RoundsBound && m.MaxUnits <= 3*m.RoundsBound
	} else {
		row.ExactOK = m.Rounds == pred.Rounds &&
			(pred.Phase1Words == 0 || m.Phase1Words == pred.Phase1Words) &&
			(pred.Phase2Words == 0 || m.Phase2Words == pred.Phase2Words) &&
			m.MaxUnits <= pred.MaxUnitsBound
	}
	return row
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
	var samples []float64

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
			samples = append(samples, float64(time.Since(t0).Nanoseconds()))
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
			samples = append(samples, float64(time.Since(t0).Nanoseconds()))
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
			samples = append(samples, float64(time.Since(t0).Nanoseconds()))
			if st.Leftover != 0 || len(st.Completed) != set.Len() {
				return nil, fmt.Errorf("online run lost requests: %d of %d completed", len(st.Completed), set.Len())
			}
			m.Rounds = st.Rounds
			m.MaxUnits = st.Report.MaxUnits()
		}

	case EngineHybrid:
		// One Scheduler plans every rep, after an untimed plan has grown
		// its buffers, as the serving planner's are between requests.
		var sc hybrid.Scheduler
		if _, err := sc.Schedule(tree, set); err != nil {
			return nil, err
		}
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			plan, err := sc.Schedule(tree, clones[i])
			if err != nil {
				return nil, err
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds()))
			m.Rounds = plan.Rounds
			m.RoundsBound = plan.FirstFitRounds
			m.MaxUnits = plan.Report.MaxUnits()
		}

	default:
		return nil, fmt.Errorf("unknown engine %q", engine)
	}
	m.LatencyNS = stats.Median(samples)
	return m, nil
}

// Table renders the measured-vs-predicted comparison as markdown.
func (r *SweepResult) Table() string {
	tab := stats.NewTable("engine", "N", "w", "rounds m/p", "p1 words m/p", "p2 words m/p",
		"units m/bound", "latency µs", "verdict")
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
		}
		roundsPred, unitsBound := row.Pred.Rounds, row.Pred.MaxUnitsBound
		if row.RoundsBound > 0 {
			roundsPred, unitsBound = row.RoundsBound, 3*row.RoundsBound
		}
		tab.AddRow(row.Engine, row.N, row.W,
			fmt.Sprintf("%d/%d", row.Rounds, roundsPred), p1, p2,
			fmt.Sprintf("%d/%d", row.MaxUnits, unitsBound),
			row.LatencyNS/1e3, verdict)
	}
	return tab.Markdown()
}

// Ok reports whether every row's theorem-exact quantities matched and
// every bounded quantity stayed under its bound.
func (r *SweepResult) Ok() bool {
	for _, row := range r.Rows {
		if !row.ExactOK {
			return false
		}
	}
	return true
}
