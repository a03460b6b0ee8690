package lab

import (
	"math"
	"strings"
	"testing"
)

// TestSweepTheoremExact is the lab's core acceptance claim: over >= 3
// values of N and >= 2 engines, the analytical twin's round and word
// counts match the engines exactly, measured power stays under the
// envelope, and every latency lands inside the fitted noise band.
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
		if !row.WithinBand {
			t.Errorf("%s N=%d w=%d: latency %.0f ns outside band %.0f±%.0f",
				row.Engine, row.N, row.W, row.LatencyNS, row.LatPredictedNS, row.LatBandNS)
		}
	}
	if !res.Ok() {
		t.Error("sweep verdict not ok")
	}
	table := res.Table()
	if !strings.Contains(table, "engine") || !strings.Contains(table, "Fitted models") {
		t.Errorf("table missing sections:\n%s", table)
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
// comparator, units ≤ 3·bound) and the ledger entries carry the bound
// instead of an exact prediction.
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
		sawBoundRounds := false
		for _, e := range res.Entries() {
			if strings.HasSuffix(e.Bench, "/rounds") {
				if e.Exact || !e.Bound {
					t.Errorf("%s: hybrid rounds entry must be Bound, not Exact: %+v", workload, e)
				}
				sawBoundRounds = true
			}
		}
		if !sawBoundRounds {
			t.Errorf("%s: no rounds entries emitted", workload)
		}
	}
}

func TestPredictClosedForms(t *testing.T) {
	p := Predict(EnginePADR, WorkloadChain, 256, 16)
	if p.Rounds != 16 || p.Phase1Words != 510 || p.Phase2Words != 16*510 || p.MaxUnitsBound != 6 {
		t.Errorf("chain prediction = %+v", p)
	}
	p = Predict(EngineOnline, WorkloadRandom, 256, 16)
	if p.Phase1Words != 0 || p.Phase2Words != 0 {
		t.Errorf("online prediction must not claim word counts: %+v", p)
	}
	if p.MaxUnitsBound != 3*(8+2) {
		t.Errorf("random-set envelope = %d, want 30", p.MaxUnitsBound)
	}
}

func TestFitLatencyRecoversPlantedModel(t *testing.T) {
	// Synthetic measurements from a known linear law: 1000 + 2·words.
	var ms []Measurement
	for _, n := range []int{64, 128, 256} {
		for _, w := range []int{2, 4, 8} {
			words := float64((2*n - 2) * (w + 1))
			ms = append(ms, Measurement{Engine: EnginePADR, N: n, W: w, M: w,
				LatencyNS: 1000 + 2*words})
		}
	}
	m, err := FitLatency(EnginePADR, ms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coeffs[0]-1000) > 1e-6 || math.Abs(m.Coeffs[1]-2) > 1e-9 {
		t.Fatalf("coeffs = %v", m.Coeffs)
	}
	if m.ResidMax > 1e-6 {
		t.Fatalf("exact law must have ~zero residuals, got %v", m.ResidMax)
	}
	pred := m.PredictNS(512, 16, 16)
	want := 1000 + 2*float64((2*512-2)*17)
	if math.Abs(pred-want) > 1e-6 {
		t.Fatalf("prediction %v, want %v", pred, want)
	}
	// The band floor keeps tiny residuals from producing a zero band.
	if m.BandNS(0) < BandFloorNS {
		t.Error("band must respect the floor")
	}
	if _, err := FitLatency("nope", ms); err == nil {
		t.Error("fitting an unmeasured engine must error")
	}
}

func TestSweepEntriesCarryPredictions(t *testing.T) {
	res, err := RunSweep(SweepConfig{
		Ns: []int{32, 64, 128}, Ws: []int{2, 4},
		Engines: []string{EnginePADR}, Reps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := res.Entries()
	// 6 points × 5 metrics (rounds, p1, p2, units, latency).
	if len(entries) != 30 {
		t.Fatalf("entries = %d, want 30", len(entries))
	}
	exact, bound, banded := 0, 0, 0
	for _, e := range entries {
		switch {
		case e.Exact:
			exact++
			if e.Value != e.Predicted {
				t.Errorf("%s: exact entry %v != predicted %v", e.Bench, e.Value, e.Predicted)
			}
		case e.Bound:
			bound++
		case e.Unit == "ns/op":
			banded++
			if e.Samples != 2 {
				t.Errorf("%s: samples = %d", e.Bench, e.Samples)
			}
		}
	}
	if exact != 18 || bound != 6 || banded != 6 {
		t.Errorf("entry classes: exact=%d bound=%d banded=%d", exact, bound, banded)
	}
}
