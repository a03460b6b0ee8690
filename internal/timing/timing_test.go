package timing

import (
	"strings"
	"testing"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/deliver"
	"cst/internal/padr"
	"cst/internal/topology"
)

// conventional is a conventional operating point: one cycle per level, a
// 4-cycle reconfiguration stall, one transfer cycle.
var conventional = Params{WaveCyclePerLevel: 1, ReconfigCycles: 4, TransferCycles: 1}

func snapshot(t *testing.T, tr *topology.Tree, sets ...[]comm.Comm) circuit.RoundConfig {
	t.Helper()
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

func TestMakespanHandBuilt(t *testing.T) {
	tr := topology.MustNew(16) // 4 levels
	cfgA := snapshot(t, tr, []comm.Comm{{Src: 0, Dst: 5}})
	// Three rounds: A (change), A held (no change), A again (no change).
	rounds := []circuit.RoundConfig{cfgA, cfgA, cfgA}
	b := Makespan(tr, rounds, Params{WaveCyclePerLevel: 1, ReconfigCycles: 4, TransferCycles: 1})
	// Wave: phase1 (4) + 3 rounds * 4 = 16; reconfig: 4 (round 0 only);
	// transfer: 3.
	if b.Wave != 16 || b.Reconfig != 4 || b.Transfer != 3 {
		t.Fatalf("breakdown %v", b)
	}
	if b.Total != 23 || b.RoundsWithChanges != 1 {
		t.Fatalf("breakdown %v", b)
	}
	if !strings.Contains(b.String(), "23 cycles") {
		t.Fatalf("String = %q", b.String())
	}
}

func TestMakespanEmpty(t *testing.T) {
	tr := topology.MustNew(8)
	b := Makespan(tr, nil, conventional)
	if b.Total != tr.Levels() {
		t.Fatalf("empty run should cost only the Phase 1 wave: %v", b)
	}
}

// Recurring two-phase traffic: holding skips the stall on every recurrence;
// dropping stalls every round.
func TestHoldVersusDropStalls(t *testing.T) {
	tr := topology.MustNew(64)
	phaseA := []comm.Comm{{Src: 0, Dst: 5}}
	phaseB := []comm.Comm{{Src: 32, Dst: 37}}
	cfgA := snapshot(t, tr, phaseA)
	cfgB := snapshot(t, tr, phaseB)
	cfgAB := snapshot(t, tr, phaseA, phaseB)

	const cycles = 12
	var hold, drop []circuit.RoundConfig
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
	bh := Makespan(tr, hold, conventional)
	bd := Makespan(tr, drop, conventional)
	if bh.RoundsWithChanges != 2 { // first A, first B
		t.Fatalf("hold stalls = %d, want 2", bh.RoundsWithChanges)
	}
	if bd.RoundsWithChanges != cycles {
		t.Fatalf("drop stalls = %d, want %d", bd.RoundsWithChanges, cycles)
	}
	if Speedup(bh, bd) <= 1 {
		t.Fatalf("holding must be faster: %v vs %v", bh, bd)
	}
}

// Honesty check: for a ONE-SHOT schedule every PADR round establishes new
// circuits, so the stall count equals the round count — power-awareness does
// not buy one-shot latency under this model.
func TestOneShotStallsEveryRound(t *testing.T) {
	tr := topology.MustNew(64)
	s, err := comm.NestedChain(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	var rec deliver.Recorder
	e, err := padr.New(tr, s, padr.WithObserver(rec.Observer()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rounds := make([]circuit.RoundConfig, rec.Rounds())
	for i := range rounds {
		rounds[i] = rec.Config(i)
	}
	b := Makespan(tr, rounds, conventional)
	if b.RoundsWithChanges != 8 {
		t.Fatalf("one-shot chain: %d stalled rounds, want 8", b.RoundsWithChanges)
	}
}

func TestSpeedupDegenerate(t *testing.T) {
	if Speedup(Breakdown{}, Breakdown{Total: 10}) != 0 {
		t.Fatal("zero-cost run speedup must read 0")
	}
}
