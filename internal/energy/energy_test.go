package energy

import (
	"strings"
	"testing"

	"cst/internal/baseline"
	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/deliver"
	"cst/internal/padr"
	"cst/internal/power"
	"cst/internal/topology"
	"cst/internal/xbar"
)

func cfgOf(t *testing.T, conns ...[3]xbar.Side) xbar.Config {
	t.Helper()
	sw := xbar.NewSwitch()
	for _, c := range conns {
		if err := sw.Connect(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	return sw.Config()
}

func TestEvaluateHandBuilt(t *testing.T) {
	tr := topology.MustNew(4) // switches 1,2,3
	lr := cfgOf(t, [3]xbar.Side{xbar.L, xbar.R})
	lp := cfgOf(t, [3]xbar.Side{xbar.L, xbar.P})
	rounds := []circuit.RoundConfig{
		{1: lr},        // round 0: root connects l->r (1 change, 1 held)
		{1: lr},        // round 1: held (0 changes, 1 held)
		{1: lp, 2: lr}, // round 2: root changes, node 2 connects (2 changes, 2 held)
	}
	b := Evaluate(tr, rounds, Model{SetCost: 1, HoldCost: 0.5, IdleCost: 0.1})
	if b.Changes != 3 {
		t.Errorf("changes = %d, want 3", b.Changes)
	}
	if b.ConnectionRounds != 4 {
		t.Errorf("connection rounds = %d, want 4", b.ConnectionRounds)
	}
	wantSet, wantHold, wantIdle := 3.0, 2.0, 0.9 // 3 rounds * 3 switches * 0.1
	if b.Set != wantSet || b.Hold != wantHold || b.Idle != wantIdle {
		t.Errorf("breakdown %v", b)
	}
	if b.Total != wantSet+wantHold+wantIdle {
		t.Errorf("total %v", b.Total)
	}
	if !strings.Contains(b.String(), "changes=3") {
		t.Errorf("String = %q", b.String())
	}
}

func TestPaperModelMatchesUnits(t *testing.T) {
	// Under the paper's model (SetCost=1, nothing else), the energy of a
	// PADR run must equal the engine's own unit ledger.
	tr := topology.MustNew(64)
	s, err := comm.NestedChain(64, 12)
	if err != nil {
		t.Fatal(err)
	}
	var rec deliver.Recorder
	e, err := padr.New(tr, s, padr.WithObserver(rec.Observer()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([]circuit.RoundConfig, rec.Rounds())
	for i := range rounds {
		rounds[i] = rec.Config(i)
	}
	b := Evaluate(tr, rounds, Paper)
	if b.Changes != res.Report.TotalUnits() {
		t.Fatalf("energy changes %d != power units %d", b.Changes, res.Report.TotalUnits())
	}
	if b.Total != float64(res.Report.TotalUnits()) {
		t.Fatalf("paper-model energy %v != units %d", b.Total, res.Report.TotalUnits())
	}
}

func TestOneShotScheduleTrajectories(t *testing.T) {
	// In a one-shot schedule every circuit is used once, so the minimal
	// realization of the drop-when-idle trajectory needs exactly as many
	// changes as hold-everything — holding only adds connection·rounds —
	// and the naive rebuild unit count is an upper bound.
	tr := topology.MustNew(64)
	s, err := comm.NestedChain(64, 10)
	if err != nil {
		t.Fatal(err)
	}
	torn, err := baseline.DepthID(tr, s, baseline.OutermostFirst, power.Stateless)
	if err != nil {
		t.Fatal(err)
	}
	bTorn := Evaluate(tr, torn.Configs, Paper)
	if bTorn.Changes > torn.Report.TotalUnits() {
		t.Fatalf("minimal realization %d must not exceed naive rebuild units %d",
			bTorn.Changes, torn.Report.TotalUnits())
	}
	held, err := baseline.DepthID(tr, s, baseline.OutermostFirst, power.Stateful)
	if err != nil {
		t.Fatal(err)
	}
	bHeld := Evaluate(tr, held.Configs, Paper)
	if bHeld.Changes > bTorn.Changes {
		t.Fatalf("hold-everything (%d changes) cannot need more changes than drop-when-idle (%d)",
			bHeld.Changes, bTorn.Changes)
	}
	if bHeld.ConnectionRounds <= bTorn.ConnectionRounds {
		t.Fatalf("held run should hold more connection rounds: %d vs %d",
			bHeld.ConnectionRounds, bTorn.ConnectionRounds)
	}
	// With any positive hold cost, drop-when-idle wins a one-shot schedule.
	m := Model{SetCost: 1, HoldCost: 0.25}
	if Evaluate(tr, held.Configs, m).Total <= Evaluate(tr, torn.Configs, m).Total {
		t.Error("holding cannot pay off when no circuit recurs")
	}
}

// AlternatingPhases builds the recurring scenario where holding genuinely
// trades against re-establishment: phase A's circuits sit idle during phase
// B and vice versa. Hold-everything pays hold energy through the idle
// phases; drop-when-idle re-establishes on every recurrence.
func alternatingPhases(t *testing.T, tr *topology.Tree, cycles int) (hold, drop []circuit.RoundConfig) {
	t.Helper()
	phaseA := []comm.Comm{{Src: 0, Dst: 5}, {Src: 8, Dst: 13}}    // left half
	phaseB := []comm.Comm{{Src: 32, Dst: 37}, {Src: 40, Dst: 45}} // right half

	snapshot := func(sets ...[]comm.Comm) circuit.RoundConfig {
		switches := circuit.NewSwitches(tr)
		for _, set := range sets {
			for _, c := range set {
				if err := circuit.Configure(tr, switches, c); err != nil {
					t.Fatal(err)
				}
			}
		}
		cfg := circuit.RoundConfig{}
		tr.EachSwitch(func(n topology.Node) { cfg[n] = switches[n].Config() })
		return cfg
	}
	cfgA := snapshot(phaseA)
	cfgB := snapshot(phaseB)
	cfgAB := snapshot(phaseA, phaseB)

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
	return hold, drop
}

func TestCrossoverOnRecurringPhases(t *testing.T) {
	tr := topology.MustNew(64)
	hold, drop := alternatingPhases(t, tr, 20)
	bHold := Evaluate(tr, hold, Paper)
	bDrop := Evaluate(tr, drop, Paper)
	// Under the paper model (holding free) the holding policy wins: it
	// establishes each circuit once, while dropping re-establishes phase A
	// and B on every recurrence.
	if bHold.Total >= bDrop.Total {
		t.Fatalf("hold %v must beat drop %v when holding is free", bHold.Total, bDrop.Total)
	}
	h, ok := Crossover(tr, hold, drop, 1)
	if !ok || h <= 0 {
		t.Fatalf("crossover must exist for recurring phases, got %v/%v", h, ok)
	}
	below := Model{SetCost: 1, HoldCost: h / 2}
	above := Model{SetCost: 1, HoldCost: h * 2}
	if Evaluate(tr, hold, below).Total >= Evaluate(tr, drop, below).Total {
		t.Error("hold should win below the crossover")
	}
	if Evaluate(tr, hold, above).Total <= Evaluate(tr, drop, above).Total {
		t.Error("hold should lose above the crossover")
	}
}

func TestCrossoverDegenerate(t *testing.T) {
	tr := topology.MustNew(4)
	same := []circuit.RoundConfig{{}}
	if _, ok := Crossover(tr, same, same, 1); ok {
		t.Fatal("identical runs cannot cross")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	tr := topology.MustNew(8)
	b := Evaluate(tr, nil, Model{SetCost: 1, HoldCost: 1, IdleCost: 1})
	if b.Total != 0 || b.Changes != 0 {
		t.Fatalf("empty run: %v", b)
	}
}
