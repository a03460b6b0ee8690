// Package baseline implements the comparison schedulers for the paper's
// evaluation.
//
// DepthID reconstructs the prior algorithm of Roy, Vaidyanathan and Trahan
// [6] as this paper characterizes it: "first assign an ID to each
// communication and use this ID to configure the switches". For well-nested
// sets the natural ID is the nesting depth — all communications of one
// depth are pairwise disjoint, hence compatible, so playing one depth per
// round yields a valid schedule of exactly MaxDepth rounds (which equals the
// link width on root-crossing workloads such as comm.NestedChain; on
// workloads whose width is below the depth, the reconstruction is
// correspondingly sub-optimal — see DESIGN.md §5).
//
// Because the ID assignment, not an outermost-first rule, dictates each
// round, a switch may be reconfigured round after round; the paper's
// complaint about [6] ("a switch needs O(w) configuration changes") shows up
// here in two forms: under power.Stateless accounting every busy round costs
// afresh, and under power.Stateful accounting the InnermostFirst and
// Alternating orders still force Θ(w) genuine changes on adversarial
// workloads.
//
// Greedy is a second baseline: repeatedly perform a maximal compatible
// subset, chosen left-to-right. It handles arbitrary right-oriented sets
// (not only well-nested ones).
package baseline

import (
	"fmt"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/power"
	"cst/internal/sched"
	"cst/internal/topology"
)

// Order selects how DepthID plays the depth levels.
type Order int

const (
	// OutermostFirst plays depth 0, 1, 2, … — the order closest to PADR's
	// selection rule.
	OutermostFirst Order = iota
	// InnermostFirst plays the deepest level first.
	InnermostFirst
	// Alternating interleaves shallow and deep levels (0, D-1, 1, D-2, …),
	// the adversarial order that maximizes reconfiguration churn.
	Alternating
)

// String names the order.
func (o Order) String() string {
	switch o {
	case OutermostFirst:
		return "outermost"
	case InnermostFirst:
		return "innermost"
	case Alternating:
		return "alternating"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Result is the outcome of a baseline run.
type Result struct {
	// Schedule lists the communications per round.
	Schedule *sched.Schedule
	// Report is the power ledger under the requested accounting mode.
	Report *power.Report
	// Rounds is the number of rounds used.
	Rounds int
	// Width is the set's link width (the optimal round count).
	Width int
	// Configs snapshots every switch's configuration at the end of each
	// round (after stateless teardown + rebuild, if that mode is active);
	// the energy model consumes these.
	Configs []circuit.RoundConfig
}

// DepthID schedules a well-nested set by nesting-depth IDs in the given
// order, configuring every circuit of a round through the switches and
// accounting power in the given mode.
func DepthID(t *topology.Tree, s *comm.Set, order Order, mode power.Mode) (*Result, error) {
	if t.Leaves() != s.N {
		return nil, fmt.Errorf("baseline: tree has %d leaves, set has N=%d", t.Leaves(), s.N)
	}
	depths, err := s.Depths()
	if err != nil {
		return nil, fmt.Errorf("baseline: %v", err)
	}
	width, err := s.Width(t)
	if err != nil {
		return nil, err
	}
	maxDepth := 0
	for _, d := range depths {
		if d+1 > maxDepth {
			maxDepth = d + 1
		}
	}
	levels := make([][]comm.Comm, maxDepth)
	for i, c := range s.Comms {
		levels[depths[i]] = append(levels[depths[i]], c)
	}
	rounds := make([][]comm.Comm, 0, maxDepth)
	for _, d := range playOrder(order, maxDepth) {
		rounds = append(rounds, levels[d])
	}
	return execute(fmt.Sprintf("depth-id(%s)", order), t, s, rounds, mode, width)
}

// playOrder returns the depth levels in play order.
func playOrder(order Order, levels int) []int {
	out := make([]int, 0, levels)
	switch order {
	case InnermostFirst:
		for d := levels - 1; d >= 0; d-- {
			out = append(out, d)
		}
	case Alternating:
		lo, hi := 0, levels-1
		for lo <= hi {
			out = append(out, lo)
			if hi != lo {
				out = append(out, hi)
			}
			lo++
			hi--
		}
	default:
		for d := 0; d < levels; d++ {
			out = append(out, d)
		}
	}
	return out
}

// Greedy schedules an arbitrary right-oriented set by repeatedly performing
// a maximal compatible subset chosen in left-to-right source order. For
// well-nested sets this coincides with outermost-first depth order; for
// general oriented sets it remains correct but makes no optimality promise.
func Greedy(t *topology.Tree, s *comm.Set, mode power.Mode) (*Result, error) {
	if t.Leaves() != s.N {
		return nil, fmt.Errorf("baseline: tree has %d leaves, set has N=%d", t.Leaves(), s.N)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.IsRightOriented() {
		return nil, fmt.Errorf("baseline: Greedy needs a right-oriented set")
	}
	width, err := s.Width(t)
	if err != nil {
		return nil, err
	}
	remaining := s.Sorted()
	var rounds [][]comm.Comm
	congestion := make([]bool, t.DirectedEdgeCount())
	for len(remaining) > 0 {
		for i := range congestion {
			congestion[i] = false
		}
		var round []comm.Comm
		var leftover []comm.Comm
		for _, c := range remaining {
			edges, err := t.PathEdges(c.Src, c.Dst)
			if err != nil {
				return nil, err
			}
			ok := true
			for _, e := range edges {
				if congestion[t.EdgeIndex(e)] {
					ok = false
					break
				}
			}
			if !ok {
				leftover = append(leftover, c)
				continue
			}
			for _, e := range edges {
				congestion[t.EdgeIndex(e)] = true
			}
			round = append(round, c)
		}
		if len(round) == 0 {
			return nil, fmt.Errorf("baseline: greedy made no progress with %d communications left", len(remaining))
		}
		rounds = append(rounds, round)
		remaining = leftover
	}
	return execute("greedy", t, s, rounds, mode, width)
}

// execute configures every round's circuits on fresh switches, accounting
// power, and returns the verified-shape result (the caller still runs
// sched.Verify in tests; execute only guards internal errors).
func execute(name string, t *topology.Tree, s *comm.Set, rounds [][]comm.Comm, mode power.Mode, width int) (*Result, error) {
	switches := circuit.NewSwitches(t)
	configs := make([]circuit.RoundConfig, 0, len(rounds))
	for _, round := range rounds {
		if mode == power.Stateless {
			t.EachSwitch(func(n topology.Node) { switches[n].Reset() })
		}
		for _, c := range round {
			if err := circuit.Configure(t, switches, c); err != nil {
				return nil, fmt.Errorf("baseline %s: %v", name, err)
			}
		}
		snap := circuit.RoundConfig{}
		t.EachSwitch(func(n topology.Node) { snap[n] = switches[n].Config() })
		configs = append(configs, snap)
	}
	schedule := &sched.Schedule{Set: s.Clone(), Rounds: rounds}
	return &Result{
		Schedule: schedule,
		Report:   power.Collect(name, mode, len(rounds), t, switches),
		Rounds:   len(rounds),
		Width:    width,
		Configs:  configs,
	}, nil
}
