package lab

import (
	"strings"
	"testing"
)

// TestSweepTheoremExact is the lab's core acceptance claim: over >= 3
// values of N and >= 2 engines, the analytical twin's round and word
// counts match the engines exactly and measured power stays under the
// envelope.
func TestSweepTheoremExact(t *testing.T) {
	res, err := RunSweep(SweepConfig{
		Ns:      []int{32, 64, 128},
		Ws:      []int{2, 8},
		Engines: []string{EnginePADR, EngineSim, EngineOnline},
		Reps:    3,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3*3*2 {
		t.Fatalf("rows = %d, want 18", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Rounds != row.Pred.Rounds {
			t.Errorf("%s N=%d w=%d: rounds %d, twin predicts %d",
				row.Engine, row.N, row.W, row.Rounds, row.Pred.Rounds)
		}
		if row.Pred.Phase1Words > 0 {
			if row.Phase1Words != row.Pred.Phase1Words {
				t.Errorf("%s N=%d w=%d: phase1 words %d, twin predicts %d",
					row.Engine, row.N, row.W, row.Phase1Words, row.Pred.Phase1Words)
			}
			if row.Phase2Words != row.Pred.Phase2Words {
				t.Errorf("%s N=%d w=%d: phase2 words %d, twin predicts %d",
					row.Engine, row.N, row.W, row.Phase2Words, row.Pred.Phase2Words)
			}
		}
		if row.MaxUnits > row.Pred.MaxUnitsBound {
			t.Errorf("%s N=%d w=%d: max units %d exceeds envelope %d",
				row.Engine, row.N, row.W, row.MaxUnits, row.Pred.MaxUnitsBound)
		}
		if row.LatencyNS <= 0 {
			t.Errorf("%s N=%d w=%d: latency %.0f ns not measured",
				row.Engine, row.N, row.W, row.LatencyNS)
		}
	}
	if !res.Ok() {
		t.Error("sweep verdict not ok")
	}
	table := res.Table()
	if !strings.Contains(table, "latency µs") || strings.Contains(table, "EXACT-MISMATCH") {
		t.Errorf("table:\n%s", table)
	}
}

func TestSweepRandomWorkload(t *testing.T) {
	res, err := RunSweep(SweepConfig{
		Ns:       []int{64, 128, 256},
		Ws:       []int{2, 4},
		Engines:  []string{EnginePADR},
		Workload: WorkloadRandom,
		Reps:     2,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.ExactOK {
			t.Errorf("random workload N=%d w=%d: exact quantities mismatch (rounds %d/%d)",
				row.N, row.W, row.Rounds, row.Pred.Rounds)
		}
		if row.M <= row.W {
			t.Errorf("random workload should carry filler comms: m=%d w=%d", row.M, row.W)
		}
	}
}

// TestSweepHybridWorkloads runs the hybrid engine over its adversarial
// set families: rows flip to bound scoring (rounds ≤ the FirstFit
// comparator, units ≤ 3·bound) instead of an exact prediction.
func TestSweepHybridWorkloads(t *testing.T) {
	for _, workload := range []string{WorkloadBitrev, WorkloadCrossing} {
		res, err := RunSweep(SweepConfig{
			Ns:       []int{32, 64, 128},
			Ws:       []int{2, 4},
			Engines:  []string{EngineHybrid},
			Workload: workload,
			Reps:     2,
			Seed:     3,
		})
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		for _, row := range res.Rows {
			if row.RoundsBound <= 0 {
				t.Fatalf("%s N=%d w=%d: hybrid row missing rounds bound", workload, row.N, row.W)
			}
			if row.Rounds > row.RoundsBound {
				t.Errorf("%s N=%d w=%d: %d rounds exceed FirstFit bound %d",
					workload, row.N, row.W, row.Rounds, row.RoundsBound)
			}
			if !row.ExactOK {
				t.Errorf("%s N=%d w=%d: bound scoring failed (rounds %d/%d, units %d)",
					workload, row.N, row.W, row.Rounds, row.RoundsBound, row.MaxUnits)
			}
		}
		if !res.Ok() {
			t.Errorf("%s: sweep verdict not ok:\n%s", workload, res.Table())
		}
	}
}

func TestPredictClosedForms(t *testing.T) {
	p, err := Predict(EnginePADR, WorkloadChain, 256, 16)
	if err != nil || p.Rounds != 16 || p.Phase1Words != 510 || p.Phase2Words != 16*510 || p.MaxUnitsBound != 6 {
		t.Errorf("chain prediction = %+v, %v", p, err)
	}
	p, err = Predict(EngineOnline, WorkloadRandom, 256, 16)
	if err != nil || p.Phase1Words != 0 || p.Phase2Words != 0 {
		t.Errorf("online prediction must not claim word counts: %+v, %v", p, err)
	}
	if p.MaxUnitsBound != 3*(8+2) {
		t.Errorf("random-set envelope = %d, want 30", p.MaxUnitsBound)
	}
	// The twin forecasts nothing for an engine, workload or tree that
	// does not exist.
	for _, c := range []struct {
		engine, workload string
		n, w             int
	}{
		{"warp", WorkloadChain, 64, 4},
		{EnginePADR, "nope", 64, 4},
		{EnginePADR, WorkloadChain, 100, 4},
		{EnginePADR, WorkloadChain, 1, 1},
		{EnginePADR, WorkloadChain, 0, 4},
		{EnginePADR, WorkloadChain, 64, 0},
	} {
		if p, err := Predict(c.engine, c.workload, c.n, c.w); err == nil {
			t.Errorf("Predict(%q, %q, %d, %d) = %+v, want an error", c.engine, c.workload, c.n, c.w, p)
		}
	}
}

// TestVerdictsFailOnPlantedRows pins the failing side of every verdict:
// each planted row breaks one scored quantity and must flip Ok() and
// name its verdict in Table(). The honest rows beside them keep the test
// from passing on a verdict that always fails.
func TestVerdictsFailOnPlantedRows(t *testing.T) {
	chain, err := Predict(EnginePADR, WorkloadChain, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	honest := Measurement{Engine: EnginePADR, Workload: WorkloadChain, N: 64, W: 4, M: 4,
		Rounds: 4, Phase1Words: chain.Phase1Words, Phase2Words: chain.Phase2Words, MaxUnits: 6}
	hybrid := Measurement{Engine: EngineHybrid, Workload: WorkloadCrossing, N: 64, W: 4, M: 4,
		Rounds: 3, RoundsBound: 3, MaxUnits: 9}
	hybridPred, err := Predict(EngineHybrid, WorkloadCrossing, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		plant func(m *Measurement)
		base  Measurement
		pred  Prediction
	}{
		{"wrong rounds", func(m *Measurement) { m.Rounds = 5 }, honest, chain},
		{"wrong phase1 words", func(m *Measurement) { m.Phase1Words-- }, honest, chain},
		{"wrong phase2 words", func(m *Measurement) { m.Phase2Words++ }, honest, chain},
		{"units over envelope", func(m *Measurement) { m.MaxUnits = 7 }, honest, chain},
		{"hybrid over FirstFit bound", func(m *Measurement) { m.Rounds = 4 }, hybrid, hybridPred},
		{"hybrid units over 3·bound", func(m *Measurement) { m.MaxUnits = 10 }, hybrid, hybridPred},
	} {
		good := &SweepResult{Rows: []Row{score(c.base, c.pred)}}
		if !good.Ok() || !strings.Contains(good.Table(), "| ok") {
			t.Fatalf("%s: honest row not ok:\n%s", c.name, good.Table())
		}
		m := c.base
		c.plant(&m)
		bad := &SweepResult{Rows: []Row{score(c.base, c.pred), score(m, c.pred)}}
		if bad.Ok() {
			t.Errorf("%s: Ok() = true", c.name)
		}
		if !strings.Contains(bad.Table(), "EXACT-MISMATCH") {
			t.Errorf("%s: table shows no EXACT-MISMATCH:\n%s", c.name, bad.Table())
		}
	}

	cfg := DeltaSweepConfig{}.withDefaults()
	honestDelta := DeltaRow{N: 1024, Active: 64, Overlap: 0.9, K: 6,
		Rounds: 1, ScratchRounds: 1, ApplyNS: 30, ScratchNS: 100, Ratio: 0.3, Gated: true}
	for _, c := range []struct {
		name, verdict string
		plant         func(r *DeltaRow)
	}{
		{"rounds differ from scratch", "EXACT-MISMATCH", func(r *DeltaRow) { r.Rounds = 2 }},
		{"gated ratio over GateRatio", "GATE-EXCEEDED", func(r *DeltaRow) { r.ApplyNS, r.Ratio = 60, 0.6 }},
	} {
		good := &DeltaSweepResult{Config: cfg, Rows: []DeltaRow{honestDelta}}
		if !good.Ok() || !strings.Contains(good.Table(), "| ok") {
			t.Fatalf("%s: honest delta row not ok:\n%s", c.name, good.Table())
		}
		row := honestDelta
		c.plant(&row)
		bad := &DeltaSweepResult{Config: cfg, Rows: []DeltaRow{honestDelta, row}}
		if bad.Ok() {
			t.Errorf("%s: Ok() = true", c.name)
		}
		if !strings.Contains(bad.Table(), c.verdict) {
			t.Errorf("%s: table shows no %s:\n%s", c.name, c.verdict, bad.Table())
		}
	}
}
