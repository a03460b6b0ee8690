// Package timing prices schedules in clock cycles, adding the latency
// dimension the paper leaves implicit. The paper notes a configured circuit
// transfers data "in a single clock cycle" (§2); real reconfigurable
// devices also need time — not just energy — to change a switch
// configuration. Under this model the power-aware property pays twice:
// rounds that reuse held configurations skip the reconfiguration stall
// entirely.
//
// Per-round makespan:
//
//	wave       — the control word broadcast, one cycle per tree level,
//	reconfig   — a stall of ReconfigCycles iff any switch changes its
//	             configuration this round (switches reconfigure in
//	             parallel, so one stall covers all of them),
//	transfer   — TransferCycles for the circuit-switched data transfer.
//
// Phase 1 contributes one upward wave. Totals are computed from per-round
// configuration snapshots, so any engine's run (PADR, baselines) can be
// priced uniformly.
package timing

import (
	"fmt"

	"cst/internal/circuit"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// Params prices the cycle costs.
type Params struct {
	// WaveCyclePerLevel is the control propagation cost per tree level
	// (Phase 1 upward and each round's downward wave).
	WaveCyclePerLevel int
	// ReconfigCycles is the stall incurred by a round in which at least one
	// switch changes configuration.
	ReconfigCycles int
	// TransferCycles is the data transfer time per round.
	TransferCycles int
}

// Breakdown is a priced run.
type Breakdown struct {
	// Rounds is the number of rounds priced.
	Rounds int
	// RoundsWithChanges counts rounds that incurred a reconfiguration
	// stall.
	RoundsWithChanges int
	// Wave, Reconfig, Transfer, Total are cycle counts; Wave includes the
	// Phase 1 upward wave.
	Wave, Reconfig, Transfer, Total int
}

// String renders e.g. "58 cycles (wave 40, reconfig 16, transfer 2; 4/8 rounds stalled)".
func (b Breakdown) String() string {
	return fmt.Sprintf("%d cycles (wave %d, reconfig %d, transfer %d; %d/%d rounds stalled)",
		b.Total, b.Wave, b.Reconfig, b.Transfer, b.RoundsWithChanges, b.Rounds)
}

// Makespan prices a run from its per-round configuration snapshots.
func Makespan(t *topology.Tree, rounds []circuit.RoundConfig, p Params) Breakdown {
	b := Breakdown{Rounds: len(rounds)}
	levels := t.Levels()
	b.Wave = p.WaveCyclePerLevel * levels // Phase 1 convergecast
	prev := map[topology.Node]xbar.Config{}
	t.EachSwitch(func(n topology.Node) { prev[n] = xbar.Config{} })
	for _, cfg := range rounds {
		b.Wave += p.WaveCyclePerLevel * levels
		b.Transfer += p.TransferCycles
		changed := false
		t.EachSwitch(func(n topology.Node) {
			cur := cfg[n]
			if !changed {
				for _, out := range []xbar.Side{xbar.L, xbar.R, xbar.P} {
					d := cur.Driver(out)
					if d != xbar.None && prev[n].Driver(out) != d {
						changed = true
						break
					}
				}
			}
			prev[n] = cur
		})
		if changed {
			b.Reconfig += p.ReconfigCycles
			b.RoundsWithChanges++
		}
	}
	b.Total = b.Wave + b.Reconfig + b.Transfer
	return b
}

// Speedup returns a's makespan advantage over b as a ratio (>1 means a is
// faster), or 0 when a took no time.
func Speedup(a, b Breakdown) float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(b.Total) / float64(a.Total)
}
