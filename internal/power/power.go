// Package power aggregates the paper's §2.3 power model over a whole CST
// run.
//
// The model: a switch spends one power unit per input→output connection it
// establishes; holding a connection across rounds is free, and so is
// dropping one. A switch therefore spends at most three units per
// reconfiguration. Theorem 8 states that under the paper's algorithm every
// switch spends O(1) units over an entire schedule, versus Θ(w) under
// round-by-round reconfiguration.
//
// Engines collect a Report from their switch meters; the harness compares
// reports across algorithms and accounting modes.
package power

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"cst/internal/topology"
	"cst/internal/xbar"
)

// Mode selects how a scheduling engine treats switch state across rounds.
type Mode int

const (
	// Stateful holds switch configurations across rounds; only genuine
	// changes cost power. This is the paper's §2.3 accounting and what the
	// PADR algorithm is designed for.
	Stateful Mode = iota
	// Stateless tears every switch down at the start of each round, so each
	// round's connections are re-established from scratch — the literal
	// reading of "a switch may alter its configuration at each round"
	// attributed to the prior algorithm [6].
	Stateless
)

// String returns "stateful" or "stateless".
func (m Mode) String() string {
	if m == Stateless {
		return "stateless"
	}
	return "stateful"
}

// SwitchReport is the power ledger of one switch after a run.
type SwitchReport struct {
	// Node is the switch's tree node.
	Node topology.Node
	// Units is the total power units spent (connections established).
	Units int
	// Alternations counts output-driver changes summed over the three
	// outputs — the quantity Lemmas 6 and 7 bound by a constant.
	Alternations int
}

// Report is the power ledger of a whole run.
type Report struct {
	// Algorithm names the engine that produced the run (e.g. "padr").
	Algorithm string
	// Mode is the accounting mode the run used.
	Mode Mode
	// Rounds is the number of schedule rounds executed.
	Rounds int
	// Switches holds one entry per internal node, in BFS node order.
	Switches []SwitchReport
}

// Collect builds a Report by reading the meters of the given switches,
// indexed by node as circuit.NewSwitches lays them out (entry 0 unused). A
// missing or nil entry reads as an idle switch.
func Collect(algorithm string, mode Mode, rounds int, t *topology.Tree, switches []*xbar.Switch) *Report {
	r := new(Report)
	r.Collect(algorithm, mode, rounds, t, switches)
	return r
}

// Collect is the package-level Collect into r, reusing the storage of
// r.Switches, so a caller that bills run after run into one Report
// allocates nothing once it has held the largest tree's ledger.
func (r *Report) Collect(algorithm string, mode Mode, rounds int, t *topology.Tree, switches []*xbar.Switch) {
	*r = Report{Algorithm: algorithm, Mode: mode, Rounds: rounds, Switches: slices.Grow(r.Switches[:0], t.Switches())}
	t.EachSwitch(func(n topology.Node) {
		rep := SwitchReport{Node: n}
		if int(n) < len(switches) && switches[n] != nil {
			rep.Units = switches[n].Units()
			rep.Alternations = switches[n].TotalAlternations()
		}
		r.Switches = append(r.Switches, rep)
	})
}

// TotalUnits sums power units over all switches.
func (r *Report) TotalUnits() int {
	total := 0
	for _, s := range r.Switches {
		total += s.Units
	}
	return total
}

// MaxUnits returns the highest per-switch unit count — the paper's
// per-switch O(1) vs Θ(w) contrast is about this number.
func (r *Report) MaxUnits() int {
	maxu := 0
	for _, s := range r.Switches {
		if s.Units > maxu {
			maxu = s.Units
		}
	}
	return maxu
}

// MaxAlternations returns the highest per-switch alternation count.
func (r *Report) MaxAlternations() int {
	maxa := 0
	for _, s := range r.Switches {
		if s.Alternations > maxa {
			maxa = s.Alternations
		}
	}
	return maxa
}

// Hottest returns the k switches with the highest unit counts, descending.
func (r *Report) Hottest(k int) []SwitchReport {
	out := append([]SwitchReport(nil), r.Switches...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Units > out[j].Units })
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

// Summary renders a one-line digest:
// "padr/stateful: 5 rounds, total 42 units, max/switch 6, max alternations 2".
func (r *Report) Summary() string {
	return fmt.Sprintf("%s/%s: %d rounds, total %d units, max/switch %d, max alternations %d",
		r.Algorithm, r.Mode, r.Rounds, r.TotalUnits(), r.MaxUnits(), r.MaxAlternations())
}

// Table renders a fixed-width table of the k hottest switches.
func (r *Report) Table(k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %14s\n", "switch", "units", "alternations")
	for _, s := range r.Hottest(k) {
		fmt.Fprintf(&b, "u%-7d %8d %14d\n", int(s.Node), s.Units, s.Alternations)
	}
	return b.String()
}

// Compare summarizes this report against another (typically PADR vs the
// baseline on the same workload), reporting the max-per-switch ratio that
// the paper's headline claim is about.
func (r *Report) Compare(other *Report) string {
	ratio := "inf"
	if m := r.MaxUnits(); m > 0 {
		ratio = fmt.Sprintf("%.2fx", float64(other.MaxUnits())/float64(m))
	}
	return fmt.Sprintf("%s vs %s: max/switch %d vs %d (%s), total %d vs %d",
		r.Algorithm, other.Algorithm, r.MaxUnits(), other.MaxUnits(), ratio,
		r.TotalUnits(), other.TotalUnits())
}
