// Package energy generalizes the paper's §2.3 power model and probes its
// central assumption.
//
// The paper charges one unit per *established* connection and nothing for
// holding one — under that model Theorem 8 makes PADR's per-switch cost
// O(1) versus Θ(w) for per-round reconfiguration. Real switches also burn
// static power while a connection is held. This package prices a run as
//
//	E = SetCost·(connections established)
//	  + HoldCost·(connection·rounds held)
//	  + IdleCost·(switch·rounds)
//
// computed from per-round configuration snapshots, and locates the
// HoldCost/SetCost ratio at which a hold-heavy schedule (PADR keeps
// circuits up across rounds) stops beating a drop-when-idle one. With
// HoldCost = IdleCost = 0 the model reduces exactly to the paper's.
//
// Evaluate prices the *minimal* physical work that realizes a configuration
// trajectory: a connection present with the same driver in consecutive
// rounds is held, never re-established. An engine's own unit ledger can
// exceed this (the Stateless accounting mode bills naive re-establishment
// every round); the trajectory view is the fair basis for comparing
// scheduling policies, because it charges each policy what an optimal
// switch controller would actually pay for it. Concretely, the Stateful
// trajectory is "hold everything forever" (minimum changes, maximum
// connection·rounds) and the Stateless trajectory is "drop circuits the
// round they fall idle" (more changes, fewer connection·rounds); the
// crossover between them is the price of the paper's holding-is-free
// assumption.
package energy

import (
	"fmt"

	"cst/internal/circuit"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// Model prices the three cost components.
type Model struct {
	// SetCost is the energy to establish one connection (the paper's
	// "power unit").
	SetCost float64
	// HoldCost is the energy to keep one connection up for one round.
	HoldCost float64
	// IdleCost is the per-switch, per-round static overhead.
	IdleCost float64
}

// Paper is the model of §2.3: only establishment costs.
var Paper = Model{SetCost: 1}

// Breakdown is the priced outcome of one run.
type Breakdown struct {
	// Changes counts established connections (driver changes, including
	// first establishment and re-establishment after a teardown).
	Changes int
	// ConnectionRounds counts connection·rounds held (every live connection
	// in every round, including the round it was established).
	ConnectionRounds int
	// Rounds is the number of rounds priced.
	Rounds int
	// Switches is the number of switches priced.
	Switches int
	// Set, Hold, Idle, Total are the priced components.
	Set, Hold, Idle, Total float64
}

// Evaluate prices a run from its per-round configuration snapshots (as
// captured by deliver.Recorder or baseline.Result.Configs). Snapshots must
// cover every switch that ever connects; switches absent from a snapshot
// read as empty that round.
func Evaluate(t *topology.Tree, rounds []circuit.RoundConfig, m Model) Breakdown {
	b := Breakdown{Rounds: len(rounds), Switches: t.Switches()}
	prev := map[topology.Node]xbar.Config{}
	t.EachSwitch(func(n topology.Node) { prev[n] = xbar.Config{} })
	for _, cfg := range rounds {
		t.EachSwitch(func(n topology.Node) {
			cur := cfg[n]
			for _, out := range []xbar.Side{xbar.L, xbar.R, xbar.P} {
				d := cur.Driver(out)
				if d == xbar.None {
					continue
				}
				b.ConnectionRounds++
				if prev[n].Driver(out) != d {
					b.Changes++
				}
			}
			prev[n] = cur
		})
	}
	b.Set = m.SetCost * float64(b.Changes)
	b.Hold = m.HoldCost * float64(b.ConnectionRounds)
	b.Idle = m.IdleCost * float64(b.Rounds*b.Switches)
	b.Total = b.Set + b.Hold + b.Idle
	return b
}

// String renders e.g. "changes=12 conn·rounds=40 E=52.0 (set 12.0, hold 40.0, idle 0.0)".
func (b Breakdown) String() string {
	return fmt.Sprintf("changes=%d conn·rounds=%d E=%.1f (set %.1f, hold %.1f, idle %.1f)",
		b.Changes, b.ConnectionRounds, b.Total, b.Set, b.Hold, b.Idle)
}

// Crossover returns the HoldCost (with the given SetCost and zero IdleCost)
// at which run A's total energy equals run B's, along with whether a
// crossover exists for positive HoldCost. Totals are linear in HoldCost:
// E(h) = SetCost·changes + h·connectionRounds, so the crossover is where
// the lines intersect. A is conventionally the hold-heavy schedule (PADR)
// and B the rebuild-heavy one; no crossover means A never loses (or never
// wins) at any positive hold cost.
func Crossover(t *topology.Tree, a, b []circuit.RoundConfig, setCost float64) (holdCost float64, exists bool) {
	ba := Evaluate(t, a, Model{SetCost: setCost})
	bb := Evaluate(t, b, Model{SetCost: setCost})
	dSlope := float64(ba.ConnectionRounds - bb.ConnectionRounds)
	dOffset := bb.Total - ba.Total
	if dSlope == 0 {
		return 0, false
	}
	h := dOffset / dSlope
	if h <= 0 {
		return 0, false
	}
	return h, true
}
