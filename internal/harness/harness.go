// Package harness defines the paper-reproduction experiments (DESIGN.md §3,
// rows E1–E12). Every experiment regenerates one claim of the paper —
// Theorems 4, 5 and 8, the efficiency statement, and the contrast with the
// prior ID-based scheduler — as a printed table plus an "observed" verdict
// line. cmd/cstbench and the repository-level benchmarks are thin wrappers.
package harness

import (
	"fmt"
	"io"
	"math/rand"

	"cst/internal/adversary"
	"cst/internal/audit"
	"cst/internal/baseline"
	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/ctrl"
	"cst/internal/deliver"
	"cst/internal/energy"
	"cst/internal/general"
	"cst/internal/lemma"
	"cst/internal/obs"
	"cst/internal/online"
	"cst/internal/padr"
	"cst/internal/power"
	"cst/internal/segbus"
	"cst/internal/sim"
	"cst/internal/srga"
	"cst/internal/stats"
	"cst/internal/timing"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// Config tunes an experiment run.
type Config struct {
	// Seed makes every experiment reproducible.
	Seed int64
	// Quick shrinks the sweeps (used by `go test` and -bench smoke runs).
	Quick bool
	// Obs, when non-nil, receives every engine's metric series: the
	// experiments thread it through the padr, sim and online constructors,
	// so a live /metrics endpoint watches the run as it happens.
	Obs *obs.Registry
	// Trace, when non-nil, receives the engines' structured JSONL events.
	Trace *obs.Tracer
	// Audit, when non-nil, follows the run live: RunOne installs it as the
	// tracer's sink, so the power ledger and theorem monitors replay every
	// experiment's event stream as it happens. Requires Trace to be set —
	// the auditor taps the same stream the tracer records.
	Audit *audit.Auditor
}

// padrOpts appends the config's observability options to extra.
func (cfg Config) padrOpts(extra ...padr.Option) []padr.Option {
	if cfg.Obs != nil {
		extra = append(extra, padr.WithRegistry(cfg.Obs))
	}
	if cfg.Trace != nil {
		extra = append(extra, padr.WithTracer(cfg.Trace))
	}
	return extra
}

// simOpts appends the config's observability options to extra.
func (cfg Config) simOpts(extra ...sim.Option) []sim.Option {
	if cfg.Obs != nil {
		extra = append(extra, sim.WithRegistry(cfg.Obs))
	}
	if cfg.Trace != nil {
		extra = append(extra, sim.WithTracer(cfg.Trace))
	}
	return extra
}

// onlineOpts appends the config's observability options to extra.
func (cfg Config) onlineOpts(extra ...online.Option) []online.Option {
	if cfg.Obs != nil {
		extra = append(extra, online.WithRegistry(cfg.Obs))
	}
	if cfg.Trace != nil {
		extra = append(extra, online.WithTracer(cfg.Trace))
	}
	return extra
}

// Experiment is one registered reproduction.
type Experiment struct {
	// ID is the DESIGN.md identifier, e.g. "E2".
	ID string
	// Title is a short name.
	Title string
	// Claim is the paper statement under test.
	Claim string
	// Run executes the experiment, writing a markdown report.
	Run func(w io.Writer, cfg Config) error
}

// All returns the registered experiments in ID order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Round optimality (Theorem 5)",
			"a width-w oriented well-nested set schedules in exactly w rounds", runE1},
		{"E2", "Configuration changes (Theorem 8)",
			"PADR: O(1) changes per switch; ID-order baseline: Θ(w) on adversarial chains", runE2},
		{"E3", "Power units (§2.3, §5)",
			"holding configurations caps every switch at O(1) units; per-round rebuilds cost Θ(w)", runE3},
		{"E4", "Constant words (Theorem 5, efficiency)",
			"every switch stores and forwards a constant number of constant-size words", runE4},
		{"E5", "Correctness mass trial (Theorem 4)",
			"every source's token reaches exactly its destination through the configured circuits", runE5},
		{"E6", "Segmentable-bus workloads (§1)",
			"each bus cycle is width <= 1 per orientation and schedules in <= 2 CST rounds", runE6},
		{"E7", "SRGA routing (§1, [7])",
			"row/column CSTs route grid permutations in two phases", runE7},
		{"E8", "Distributed execution (§2.2)",
			"the goroutine-per-node simulation matches the sequential engine with 2N-2 words per wave", runE8},
		{"E9", "Baseline order ablation ([6])",
			"only outermost-first ordering keeps reconfiguration constant; other ID orders churn", runE9},
		{"E10", "Energy-model sensitivity (extension of §2.3)",
			"the holding-is-free assumption has a price: a HoldCost/SetCost crossover where dropping idle circuits beats holding them", runE10},
		{"E11", "General oriented sets (extension, concluding remarks)",
			"crossing sets schedule via conflict coloring; first-fit is near-optimal and the width is usually the exact optimum", runE11},
		{"E12", "Selection-rule tradeoff (reproduction finding)",
			"the literal Fig. 5 rule is time-optimal but its change count creeps with N; the prose's satisfy-outer-first rule pins changes to O(1) at the cost of extra rounds", runE12},
		{"E13", "Reconfiguration latency (extension)",
			"with a per-round reconfiguration stall, held configurations buy wall-clock time on recurring traffic (and none on one-shot schedules)", runE13},
		{"E14", "Adversarial worst-case search (extension of E12)",
			"hill-climbing over well-nested inputs: the literal rule's worst-case churn exceeds random sampling's, while the conservative rule stays O(1) on the same inputs", runE14},
		{"E15", "Exact joint optimum (extension of E12)",
			"among ALL width-round schedules the minimum change count matches the distributed greedy engine — the rounds-vs-changes tension is fundamental to the inputs, not an artifact of the protocol", runE15},
		{"E16", "Online traffic (extension)",
			"dynamically arriving requests batch into well-nested dispatches; latency degrades gracefully with load and shared crossbars amortize power", runE16},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, cfg Config) error {
	for _, e := range All() {
		if err := RunOne(w, e, cfg); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes a single experiment with its standard header.
func RunOne(w io.Writer, e Experiment, cfg Config) error {
	if cfg.Audit != nil && cfg.Trace != nil {
		cfg.Trace.SetSink(cfg.Audit.Observe)
	}
	fmt.Fprintf(w, "## %s — %s\n\nClaim: %s.\n\n", e.ID, e.Title, e.Claim)
	if err := e.Run(w, cfg); err != nil {
		return fmt.Errorf("%s: %v", e.ID, err)
	}
	fmt.Fprintln(w)
	return nil
}

// ---------------------------------------------------------------------------
// E1 — rounds == width
// ---------------------------------------------------------------------------

func runE1(w io.Writer, cfg Config) error {
	sizes := []int{64, 256, 1024}
	widths := []int{1, 2, 4, 8, 16, 32}
	if cfg.Quick {
		sizes = []int{64, 256}
		widths = []int{1, 4, 16}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tab := stats.NewTable("N", "w", "PADR rounds", "optimal", "greedy rounds", "depth-id rounds")
	allOptimal := true
	for _, n := range sizes {
		tr, err := topology.New(n)
		if err != nil {
			return err
		}
		for _, width := range widths {
			if 2*width > n/2 {
				continue
			}
			s, err := comm.RandomWellNestedWidth(rng, n, width+n/16, width)
			if err != nil {
				return err
			}
			eng, err := padr.New(tr, s, cfg.padrOpts()...)
			if err != nil {
				return err
			}
			res, err := eng.Run()
			if err != nil {
				return err
			}
			if err := res.Schedule.VerifyOptimal(tr); err != nil {
				return err
			}
			gr, err := baseline.Greedy(tr, s, power.Stateful)
			if err != nil {
				return err
			}
			di, err := baseline.DepthID(tr, s, baseline.OutermostFirst, power.Stateful)
			if err != nil {
				return err
			}
			opt := res.Rounds == width
			allOptimal = allOptimal && opt
			tab.AddRow(n, width, res.Rounds, opt, gr.Rounds, di.Rounds)
		}
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: PADR optimal on all rows = %v (depth-id may exceed the width when nesting depth > link width).\n", allOptimal)
	return nil
}

// ---------------------------------------------------------------------------
// E2 — configuration changes vs w
// ---------------------------------------------------------------------------

func runE2(w io.Writer, cfg Config) error {
	n := 256
	widths := []int{4, 8, 16, 32, 64}
	if cfg.Quick {
		widths = []int{4, 16, 64}
	}
	tr, err := topology.New(n)
	if err != nil {
		return err
	}
	tab := stats.NewTable("w", "PADR max units", "PADR max alternations", "alt-ID max alternations", "ratio")
	padrMax := 0
	growing := true
	prevAlt := 0
	for _, width := range widths {
		s, err := comm.SplitChain(n, width)
		if err != nil {
			return err
		}
		eng, err := padr.New(tr, s, cfg.padrOpts()...)
		if err != nil {
			return err
		}
		res, err := eng.Run()
		if err != nil {
			return err
		}
		alt, err := baseline.DepthID(tr, s, baseline.Alternating, power.Stateful)
		if err != nil {
			return err
		}
		if res.Report.MaxUnits() > padrMax {
			padrMax = res.Report.MaxUnits()
		}
		a := alt.Report.MaxAlternations()
		growing = growing && a > prevAlt
		prevAlt = a
		ratio := float64(a) / float64(max1(res.Report.MaxAlternations()))
		tab.AddRow(width, res.Report.MaxUnits(), res.Report.MaxAlternations(), a, ratio)
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: PADR per-switch units bounded by %d across all w (O(1)); alternating-ID churn grows with w = %v (Θ(w)).\n", padrMax, growing)
	return nil
}

// ---------------------------------------------------------------------------
// E3 — power units by accounting mode
// ---------------------------------------------------------------------------

func runE3(w io.Writer, cfg Config) error {
	n := 256
	widths := []int{4, 8, 16, 32, 64}
	if cfg.Quick {
		widths = []int{4, 16, 64}
	}
	tr, err := topology.New(n)
	if err != nil {
		return err
	}
	tab := stats.NewTable("w", "PADR max units", "PADR total units", "stateless max units", "stateless total units")
	ok := true
	for _, width := range widths {
		s, err := comm.NestedChain(n, width)
		if err != nil {
			return err
		}
		run := func(mode power.Mode) (*padr.Result, error) {
			eng, err := padr.New(tr, s.Clone(), cfg.padrOpts(padr.WithMode(mode))...)
			if err != nil {
				return nil, err
			}
			return eng.Run()
		}
		held, err := run(power.Stateful)
		if err != nil {
			return err
		}
		torn, err := run(power.Stateless)
		if err != nil {
			return err
		}
		ok = ok && held.Report.MaxUnits() <= 6 && torn.Report.MaxUnits() >= width
		tab.AddRow(width, held.Report.MaxUnits(), held.Report.TotalUnits(),
			torn.Report.MaxUnits(), torn.Report.TotalUnits())
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: held configurations keep every switch at O(1) units while per-round rebuilds pay >= w at the hottest switch = %v.\n", ok)
	return nil
}

// ---------------------------------------------------------------------------
// E4 — constant words and storage
// ---------------------------------------------------------------------------

func runE4(w io.Writer, cfg Config) error {
	sizes := []int{16, 64, 256, 1024}
	if cfg.Quick {
		sizes = []int{16, 256}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tab := stats.NewTable("N", "phase1 words", "phase2 words/round", "max stored bytes", "up word bytes", "down word bytes")
	constant := true
	for _, n := range sizes {
		tr, err := topology.New(n)
		if err != nil {
			return err
		}
		s, err := comm.RandomWellNestedWidth(rng, n, 8+n/32, 8)
		if err != nil {
			return err
		}
		eng, err := padr.New(tr, s)
		if err != nil {
			return err
		}
		res, err := eng.Run()
		if err != nil {
			return err
		}
		perRound := 0
		if res.Rounds > 0 {
			perRound = res.DownWords / res.Rounds
		}
		upBytes := res.UpBytes / max1(res.UpWords)
		downBytes := res.DownBytes / max1(res.DownWords)
		constant = constant && res.MaxStoredBytes == 20 && upBytes == 8 && downBytes == 9
		tab.AddRow(n, res.UpWords, perRound, res.MaxStoredBytes, upBytes, downBytes)
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: per-switch storage and per-link word sizes independent of N and w = %v; word counts are exactly 2N-2 per wave.\n", constant)
	return nil
}

// ---------------------------------------------------------------------------
// E5 — correctness mass trial
// ---------------------------------------------------------------------------

func runE5(w io.Writer, cfg Config) error {
	trials := 400
	if cfg.Quick {
		trials = 60
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	trees := map[int]*topology.Tree{}
	verified, tokens := 0, 0
	for i := 0; i < trials; i++ {
		n := 1 << (2 + rng.Intn(6)) // 4..128
		s, err := comm.RandomWellNested(rng, n, rng.Intn(n/2+1))
		if err != nil {
			return err
		}
		tr := trees[n]
		if tr == nil {
			tr, err = topology.New(n)
			if err != nil {
				return err
			}
			trees[n] = tr
		}
		var rec deliver.Recorder
		eng, err := padr.New(tr, s, cfg.padrOpts(padr.WithObserver(rec.Observer()))...)
		if err != nil {
			return err
		}
		res, err := eng.Run()
		if err != nil {
			return fmt.Errorf("trial %d (%s): %v", i, s, err)
		}
		if err := res.Schedule.VerifyOptimal(tr); err != nil {
			return fmt.Errorf("trial %d (%s): %v", i, s, err)
		}
		if err := rec.Verify(tr); err != nil {
			return fmt.Errorf("trial %d (%s): %v", i, s, err)
		}
		verified++
		tokens += s.Len()
	}
	tab := stats.NewTable("trials", "schedules verified", "tokens delivered", "failures")
	tab.AddRow(trials, verified, tokens, trials-verified)
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: %d/%d random sets fully verified (compatibility, optimality, data plane).\n", verified, trials)
	return nil
}

// ---------------------------------------------------------------------------
// E6 — segmentable bus programs
// ---------------------------------------------------------------------------

func runE6(w io.Writer, cfg Config) error {
	n := 64
	cyclesPer := 50
	if cfg.Quick {
		cyclesPer = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr, err := topology.New(n)
	if err != nil {
		return err
	}
	tab := stats.NewTable("segment width", "cycles", "CST rounds", "rounds/cycle", "total units", "max units/switch")
	ok := true
	for _, segW := range []int{4, 8, 16, 32} {
		bus, err := segbus.New(n)
		if err != nil {
			return err
		}
		prog, err := segbus.RandomProgram(rng, bus, cyclesPer, segW, 0.9)
		if err != nil {
			return err
		}
		res, err := segbus.RunProgram(tr, bus, prog)
		if err != nil {
			return err
		}
		perCycle := float64(res.Rounds) / float64(max1(res.Cycles))
		ok = ok && perCycle <= 2.0
		tab.AddRow(segW, res.Cycles, res.Rounds, perCycle, res.Report.TotalUnits(), res.Report.MaxUnits())
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: every bus cycle fits in <= 2 CST rounds (one per orientation) = %v; held circuits amortize power across cycles.\n", ok)
	return nil
}

// ---------------------------------------------------------------------------
// E7 — SRGA grid routing
// ---------------------------------------------------------------------------

func runE7(w io.Writer, cfg Config) error {
	grids := [][2]int{{8, 8}, {16, 16}, {32, 32}}
	if cfg.Quick {
		grids = [][2]int{{8, 8}, {16, 16}}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tab := stats.NewTable("grid", "workload", "comms", "row rounds", "col rounds", "wall rounds", "max units/switch")
	for _, dim := range grids {
		g, err := srga.New(dim[0], dim[1])
		if err != nil {
			return err
		}
		workloads := []struct {
			name  string
			comms []srga.Comm2D
		}{
			{"permutation", srga.RandomPermutation(rng, g)},
			{"shift+3", srga.RowShift(g, 3)},
		}
		if tcomms, err := srga.Transpose(g); err == nil {
			workloads = append(workloads, struct {
				name  string
				comms []srga.Comm2D
			}{"transpose", tcomms})
		}
		for _, wl := range workloads {
			res, err := g.Route(wl.comms)
			if err != nil {
				return err
			}
			maxUnits := res.RowPhase.MaxUnits
			if res.ColPhase.MaxUnits > maxUnits {
				maxUnits = res.ColPhase.MaxUnits
			}
			tab.AddRow(fmt.Sprintf("%dx%d", dim[0], dim[1]), wl.name, len(wl.comms),
				res.RowPhase.MaxRounds, res.ColPhase.MaxRounds, res.TotalMaxRounds(), maxUnits)
		}
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintln(w, "\nObserved: two-phase row/column CST routing completes every workload; uniform shifts stay row-local.")
	return nil
}

// ---------------------------------------------------------------------------
// E8 — concurrent simulation
// ---------------------------------------------------------------------------

func runE8(w io.Writer, cfg Config) error {
	sizes := []int{16, 64, 256, 1024}
	if cfg.Quick {
		sizes = []int{16, 128}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tab := stats.NewTable("N", "goroutines", "phase1 msgs", "phase2 msgs/round", "rounds", "agrees with sequential")
	ok := true
	for _, n := range sizes {
		tr, err := topology.New(n)
		if err != nil {
			return err
		}
		s, err := comm.RandomWellNestedWidth(rng, n, 4+n/32, 4)
		if err != nil {
			return err
		}
		conc, err := sim.Run(tr, s, cfg.simOpts()...)
		if err != nil {
			return err
		}
		seqEng, err := padr.New(tr, s, cfg.padrOpts()...)
		if err != nil {
			return err
		}
		seq, err := seqEng.Run()
		if err != nil {
			return err
		}
		agrees := seq.Rounds == conc.Rounds &&
			seq.Report.TotalUnits() == conc.Report.TotalUnits() &&
			seq.Report.MaxUnits() == conc.Report.MaxUnits()
		ok = ok && agrees && conc.Phase1Messages == 2*n-2
		perRound := 0
		if conc.Rounds > 0 {
			perRound = conc.Phase2Messages / conc.Rounds
		}
		tab.AddRow(n, conc.Goroutines, conc.Phase1Messages, perRound, conc.Rounds, agrees)
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: goroutine-per-node execution reproduces the sequential engine exactly = %v.\n", ok)
	return nil
}

// ---------------------------------------------------------------------------
// E9 — baseline order ablation
// ---------------------------------------------------------------------------

func runE9(w io.Writer, cfg Config) error {
	n := 256
	width := 32
	if cfg.Quick {
		width = 16
	}
	tr, err := topology.New(n)
	if err != nil {
		return err
	}
	s, err := comm.SplitChain(n, width)
	if err != nil {
		return err
	}
	tab := stats.NewTable("scheduler", "order", "mode", "rounds", "max units", "max alternations")
	eng, err := padr.New(tr, s.Clone(), cfg.padrOpts()...)
	if err != nil {
		return err
	}
	pres, err := eng.Run()
	if err != nil {
		return err
	}
	tab.AddRow("padr", "outermost (built in)", "stateful", pres.Rounds, pres.Report.MaxUnits(), pres.Report.MaxAlternations())
	for _, order := range []baseline.Order{baseline.OutermostFirst, baseline.InnermostFirst, baseline.Alternating} {
		for _, mode := range []power.Mode{power.Stateful, power.Stateless} {
			res, err := baseline.DepthID(tr, s, order, mode)
			if err != nil {
				return err
			}
			tab.AddRow("depth-id", order.String(), mode.String(), res.Rounds, res.Report.MaxUnits(), res.Report.MaxAlternations())
		}
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintln(w, "\nObserved: monotone orders hold configurations (O(1) changes); the alternating ID order and all stateless runs churn Θ(w).")
	return nil
}

// ---------------------------------------------------------------------------
// E10 — energy-model sensitivity
// ---------------------------------------------------------------------------

func runE10(w io.Writer, cfg Config) error {
	n := 64
	cyclesList := []int{10, 20, 40, 80}
	if cfg.Quick {
		cyclesList = []int{10, 40}
	}
	tr, err := topology.New(n)
	if err != nil {
		return err
	}
	// Two alternating traffic phases confined to opposite halves of the
	// tree: the hold-everything policy establishes each circuit once and
	// pays hold energy through the idle phases; drop-when-idle re-creates
	// circuits on every recurrence.
	phaseA := []comm.Comm{{Src: 0, Dst: 5}, {Src: 8, Dst: 13}, {Src: 16, Dst: 21}}
	phaseB := []comm.Comm{{Src: 32, Dst: 37}, {Src: 40, Dst: 45}, {Src: 48, Dst: 53}}
	snapshot := func(sets ...[]comm.Comm) (deliver.RoundConfig, error) {
		switches := map[topology.Node]*xbar.Switch{}
		tr.EachSwitch(func(nd topology.Node) { switches[nd] = xbar.NewSwitch() })
		for _, set := range sets {
			for _, c := range set {
				if err := circuit.Configure(tr, switches, c); err != nil {
					return nil, err
				}
			}
		}
		out := deliver.RoundConfig{}
		tr.EachSwitch(func(nd topology.Node) { out[nd] = switches[nd].Config() })
		return out, nil
	}
	cfgA, err := snapshot(phaseA)
	if err != nil {
		return err
	}
	cfgB, err := snapshot(phaseB)
	if err != nil {
		return err
	}
	cfgAB, err := snapshot(phaseA, phaseB)
	if err != nil {
		return err
	}

	tab := stats.NewTable("cycles", "hold changes", "drop changes", "hold conn·rounds", "drop conn·rounds", "crossover HoldCost/SetCost")
	ok := true
	for _, cycles := range cyclesList {
		var hold, drop []deliver.RoundConfig
		for i := 0; i < cycles; i++ {
			if i == 0 {
				hold = append(hold, cfgA)
			} else {
				hold = append(hold, cfgAB)
			}
			if i%2 == 0 {
				drop = append(drop, cfgA)
			} else {
				drop = append(drop, cfgB)
			}
		}
		bh := energy.Evaluate(tr, hold, energy.Paper)
		bd := energy.Evaluate(tr, drop, energy.Paper)
		h, exists := energy.Crossover(tr, hold, drop, 1)
		ok = ok && exists && bh.Total < bd.Total
		tab.AddRow(cycles, bh.Changes, bd.Changes, bh.ConnectionRounds, bd.ConnectionRounds, h)
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: holding wins under the paper model (HoldCost 0) on every row = %v; the crossover climbs toward HoldCost = SetCost as recurrences accumulate — i.e. the longer a pattern repeats, the more hold cost the PADR strategy tolerates before drop-when-idle wins.\n", ok)
	return nil
}

// ---------------------------------------------------------------------------
// E11 — general (crossing) oriented sets
// ---------------------------------------------------------------------------

func runE11(w io.Writer, cfg Config) error {
	trials := 120
	if cfg.Quick {
		trials = 25
	}
	n := 32
	m := 8
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr, err := topology.New(n)
	if err != nil {
		return err
	}
	ffOpt, exactAtWidth, budgetOuts := 0, 0, 0
	sumWidth, sumFF, sumExact := 0, 0, 0
	for i := 0; i < trials; i++ {
		s, err := comm.RandomOriented(rng, n, m)
		if err != nil {
			return err
		}
		width, err := s.Width(tr)
		if err != nil {
			return err
		}
		ff, err := general.FirstFit(tr, s)
		if err != nil {
			return err
		}
		if err := ff.Verify(tr); err != nil {
			return err
		}
		ex, exhausted, err := general.Incumbent(general.Exact(tr, s, 500000))
		if err != nil {
			return err
		}
		if exhausted {
			budgetOuts++
		}
		if err := ex.Verify(tr); err != nil {
			return err
		}
		if ff.NumRounds() == ex.NumRounds() {
			ffOpt++
		}
		if ex.NumRounds() == width {
			exactAtWidth++
		}
		sumWidth += width
		sumFF += ff.NumRounds()
		sumExact += ex.NumRounds()
	}
	tab := stats.NewTable("trials", "mean width", "mean first-fit rounds", "mean optimal rounds", "first-fit optimal", "optimum == width", "budget exhausted")
	tab.AddRow(trials,
		float64(sumWidth)/float64(trials),
		float64(sumFF)/float64(trials),
		float64(sumExact)/float64(trials),
		fmt.Sprintf("%d/%d", ffOpt, trials),
		fmt.Sprintf("%d/%d", exactAtWidth, trials),
		budgetOuts)
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: on random crossing sets the optimum equals the width lower bound in %d/%d trials and first-fit finds it in %d/%d — the well-nested restriction is what makes the paper's *distributed O(1)-state* solution possible, not what makes width-optimal schedules exist.\n", exactAtWidth, trials, ffOpt, trials)
	return nil
}

// ---------------------------------------------------------------------------
// E12 — selection-rule tradeoff
// ---------------------------------------------------------------------------

func runE12(w io.Writer, cfg Config) error {
	sizes := []int{16, 64, 256}
	trials := 400
	if cfg.Quick {
		sizes = []int{16, 64}
		trials = 80
	}
	tab := stats.NewTable("N", "trials",
		"greedy max flips", "greedy max units", "greedy extra rounds",
		"conservative max flips", "conservative max units", "conservative extra rounds (mean/max)")
	lemmaHolds := true
	for _, n := range sizes {
		tr, err := topology.New(n)
		if err != nil {
			return err
		}
		gF, gU, cF, cU, cExtraSum, cExtraMax := 0, 0, 0, 0, 0, 0
		for seed := int64(0); seed < int64(trials); seed++ {
			rng := rand.New(rand.NewSource(cfg.Seed + seed))
			s, err := comm.RandomWellNested(rng, n, rng.Intn(n/2+1))
			if err != nil {
				return err
			}
			for _, sel := range []padr.Selection{padr.Greedy, padr.Conservative} {
				var mon lemma.Monitor
				e, err := padr.New(tr, s.Clone(), cfg.padrOpts(padr.WithSelection(sel), padr.WithObserver(mon.Observer()))...)
				if err != nil {
					return err
				}
				res, err := e.Run()
				if err != nil {
					return err
				}
				if err := res.Schedule.Verify(tr); err != nil {
					return err
				}
				flips := 0
				for node := topology.Node(2); int(node) < 2*n; node++ {
					seq := mon.Sequence(node)
					for _, proj := range []func(ctrl.Use) bool{ctrl.Use.HasS, ctrl.Use.HasD} {
						if f := lemma.Flips(seq, proj); f > flips {
							flips = f
						}
					}
				}
				switch sel {
				case padr.Greedy:
					if flips > gF {
						gF = flips
					}
					if res.Report.MaxUnits() > gU {
						gU = res.Report.MaxUnits()
					}
					if res.Rounds != res.Width {
						return fmt.Errorf("E12: greedy must be width-optimal")
					}
				default:
					if flips > cF {
						cF = flips
					}
					if res.Report.MaxUnits() > cU {
						cU = res.Report.MaxUnits()
					}
					cExtraSum += res.Rounds - res.Width
					if res.Rounds-res.Width > cExtraMax {
						cExtraMax = res.Rounds - res.Width
					}
				}
			}
		}
		lemmaHolds = lemmaHolds && cF <= lemma.MaxFlips
		tab.AddRow(n, trials, gF, gU, 0, cF, cU,
			fmt.Sprintf("%.2f/%d", float64(cExtraSum)/float64(trials), cExtraMax))
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: conservative satisfies Lemma 7's strict <= %d-flip bound on every input = %v with flat O(1) units; greedy is always width-optimal but its worst-case flips/units grow slowly with N. On the paper's chain workloads (E2/E3) the two rules coincide.\n",
		lemma.MaxFlips, lemmaHolds)
	return nil
}

// ---------------------------------------------------------------------------
// E13 — reconfiguration latency
// ---------------------------------------------------------------------------

func runE13(w io.Writer, cfg Config) error {
	n := 64
	cycles := 24
	if cfg.Quick {
		cycles = 8
	}
	tr, err := topology.New(n)
	if err != nil {
		return err
	}
	phaseA := []comm.Comm{{Src: 0, Dst: 5}, {Src: 8, Dst: 13}}
	phaseB := []comm.Comm{{Src: 32, Dst: 37}, {Src: 40, Dst: 45}}
	snapshot := func(sets ...[]comm.Comm) (deliver.RoundConfig, error) {
		switches := map[topology.Node]*xbar.Switch{}
		tr.EachSwitch(func(nd topology.Node) { switches[nd] = xbar.NewSwitch() })
		for _, set := range sets {
			for _, c := range set {
				if err := circuit.Configure(tr, switches, c); err != nil {
					return nil, err
				}
			}
		}
		out := deliver.RoundConfig{}
		tr.EachSwitch(func(nd topology.Node) { out[nd] = switches[nd].Config() })
		return out, nil
	}
	cfgA, err := snapshot(phaseA)
	if err != nil {
		return err
	}
	cfgB, err := snapshot(phaseB)
	if err != nil {
		return err
	}
	cfgAB, err := snapshot(phaseA, phaseB)
	if err != nil {
		return err
	}
	var hold, drop []deliver.RoundConfig
	for i := 0; i < cycles; i++ {
		if i == 0 {
			hold = append(hold, cfgA)
		} else {
			hold = append(hold, cfgAB)
		}
		if i%2 == 0 {
			drop = append(drop, cfgA)
		} else {
			drop = append(drop, cfgB)
		}
	}

	// One-shot reference: a PADR chain run (every round establishes new
	// circuits, so no policy can skip the stall).
	chain, err := comm.NestedChain(n, 8)
	if err != nil {
		return err
	}
	var rec deliver.Recorder
	eng, err := padr.New(tr, chain, cfg.padrOpts(padr.WithObserver(rec.Observer()))...)
	if err != nil {
		return err
	}
	if _, err := eng.Run(); err != nil {
		return err
	}
	oneShot := make([]deliver.RoundConfig, rec.Rounds())
	for i := range oneShot {
		oneShot[i] = rec.Config(i)
	}

	tab := stats.NewTable("reconfig stall R", "hold cycles", "drop cycles", "speedup", "one-shot stalled rounds")
	ok := true
	for _, r := range []int{1, 4, 16, 64} {
		p := timing.Params{WaveCyclePerLevel: 1, ReconfigCycles: r, TransferCycles: 1}
		bh := timing.Makespan(tr, hold, p)
		bd := timing.Makespan(tr, drop, p)
		bo := timing.Makespan(tr, oneShot, p)
		ok = ok && bh.Total < bd.Total && bo.RoundsWithChanges == bo.Rounds
		tab.AddRow(r, bh.Total, bd.Total, timing.Speedup(bh, bd), fmt.Sprintf("%d/%d", bo.RoundsWithChanges, bo.Rounds))
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: on recurring two-phase traffic holding beats drop-when-idle at every stall cost (speedup grows with R) = %v; on one-shot schedules every round stalls regardless of policy — power-awareness buys latency only when traffic repeats.\n", ok)
	return nil
}

// ---------------------------------------------------------------------------
// E14 — adversarial worst-case search
// ---------------------------------------------------------------------------

func runE14(w io.Writer, cfg Config) error {
	sizes := []int{32, 64, 128}
	iters := 600
	if cfg.Quick {
		sizes = []int{32, 64}
		iters = 150
	}
	tab := stats.NewTable("N", "search iters", "worst greedy max units", "conservative units (same input)", "worst conservative extra rounds")
	ok := true
	for i, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		tr, err := topology.New(n)
		if err != nil {
			return err
		}
		res, err := adversary.Search(rng, n, iters, adversary.GreedyMaxUnits)
		if err != nil {
			return err
		}
		consEng, err := padr.New(tr, res.Set.Clone(), cfg.padrOpts(padr.WithSelection(padr.Conservative))...)
		if err != nil {
			return err
		}
		cons, err := consEng.Run()
		if err != nil {
			return err
		}
		extra, err := adversary.Search(rng, n, iters, adversary.ConservativeExtraRounds)
		if err != nil {
			return err
		}
		ok = ok && cons.Report.MaxUnits() <= 4
		tab.AddRow(n, iters, int(res.Score), cons.Report.MaxUnits(), int(extra.Score))
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: adversarial search pushes the literal rule's per-switch churn beyond random sampling while the conservative rule holds <= 4 units on the very same inputs = %v; the flip side is the conservative rule's adversarially-maximized round overhead.\n", ok)
	return nil
}

// ---------------------------------------------------------------------------
// E15 — exact joint optimum on small instances
// ---------------------------------------------------------------------------

func runE15(w io.Writer, cfg Config) error {
	n := 16
	trials := 20
	if cfg.Quick {
		trials = 6
	}
	tr, err := topology.New(n)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	divergence, err := comm.Parse("..(((()(....))))") // the divergence example
	if err != nil {
		return err
	}
	inputs := []*comm.Set{divergence}
	for len(inputs) < trials {
		s, err := comm.RandomWellNested(rng, n, 2+rng.Intn(5))
		if err != nil {
			return err
		}
		if s.Len() > 0 {
			inputs = append(inputs, s)
		}
	}

	priceEngine := func(s *comm.Set, sel padr.Selection) (changes, rounds int, err error) {
		var rec deliver.Recorder
		e, err := padr.New(tr, s.Clone(), cfg.padrOpts(padr.WithSelection(sel), padr.WithObserver(rec.Observer()))...)
		if err != nil {
			return 0, 0, err
		}
		res, err := e.Run()
		if err != nil {
			return 0, 0, err
		}
		rounds = res.Rounds
		snaps := make([]deliver.RoundConfig, rec.Rounds())
		for i := range snaps {
			snaps[i] = rec.Config(i)
		}
		return energy.Evaluate(tr, snaps, energy.Paper).Changes, rounds, nil
	}

	greedyOptimal, exhausted := 0, 0
	tab := stats.NewTable("input", "width", "optimal changes @ width rounds", "greedy engine changes", "conservative changes (rounds)")
	for i, s := range inputs {
		opt, err := general.MinChangeSchedule(tr, s, 300000)
		if err != nil {
			return err
		}
		if opt.Exhaustive {
			exhausted++
		}
		gC, gR, err := priceEngine(s, padr.Greedy)
		if err != nil {
			return err
		}
		if gR != opt.Schedule.NumRounds() {
			return fmt.Errorf("E15: greedy rounds %d vs optimal schedule rounds %d", gR, opt.Schedule.NumRounds())
		}
		cC, cR, err := priceEngine(s, padr.Conservative)
		if err != nil {
			return err
		}
		if gC == opt.Changes {
			greedyOptimal++
		}
		label := s.String()
		if len(label) > 16 {
			label = label[:16]
		}
		if i < 6 { // print a sample; aggregate below covers the rest
			tab.AddRow(label, opt.Schedule.NumRounds(), opt.Changes, gC, fmt.Sprintf("%d (%d)", cC, cR))
		}
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: the distributed greedy engine matches the exact centralized optimum (fewest changes among all width-round schedules) on %d/%d instances (%d searched exhaustively) — including the minimal Lemma 7 counterexample, where NO width-optimal schedule avoids the extra churn. The tension between Theorems 5 and 8 on general inputs is a property of the inputs themselves.\n", greedyOptimal, len(inputs), exhausted)
	return nil
}

// ---------------------------------------------------------------------------
// E16 — online traffic
// ---------------------------------------------------------------------------

func runE16(w io.Writer, cfg Config) error {
	n := 64
	steps := 400
	if cfg.Quick {
		steps = 100
	}
	tab := stats.NewTable("arrivals/step", "submitted", "batches", "busy rounds", "mean latency", "max latency", "units/busy round")
	prevLat := 0.0
	ok := true
	for _, load := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(cfg.Seed))
		sim, err := online.New(n, cfg.onlineOpts()...)
		if err != nil {
			return err
		}
		submitted := 0
		for step := 0; step < steps; step++ {
			submitted += sim.SubmitRandom(rng, load)
			if sim.QueueLen() >= 2*load {
				if _, err := sim.Dispatch(); err != nil {
					return err
				}
			} else {
				sim.Tick()
			}
		}
		if err := sim.Drain(); err != nil {
			return err
		}
		st := sim.Finish()
		if len(st.Completed) != submitted || st.Leftover != 0 {
			return fmt.Errorf("E16: lost requests: %d completed of %d", len(st.Completed), submitted)
		}
		unitsPerRound := float64(st.Report.TotalUnits()) / float64(max1(st.Rounds))
		ok = ok && st.MeanLatency() >= prevLat*0.5 // latency broadly grows with load
		prevLat = st.MeanLatency()
		tab.AddRow(load, submitted, st.Batches, st.Rounds, st.MeanLatency(), st.MaxLatency(), unitsPerRound)
	}
	fmt.Fprint(w, tab.Markdown())
	fmt.Fprintf(w, "\nObserved: every submitted request completes at every load = %v; latency grows with load while per-round power stays bounded by the circuits actually established.\n", ok)
	return nil
}

func max1(x int) int {
	if x < 1 {
		return 1
	}
	return x
}
