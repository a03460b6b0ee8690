package general

import (
	"fmt"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/energy"
	"cst/internal/sched"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// MinChangeResult is the outcome of the exact joint optimization.
type MinChangeResult struct {
	// Schedule is a width-round schedule minimizing configuration changes.
	Schedule *sched.Schedule
	// Changes is the minimal total connection-change count over all
	// width-round schedules explored (per the energy package's
	// minimal-work trajectory realization, connections held across rounds).
	Changes int
	// MaxPerSwitch is the hottest switch's change count in that schedule.
	MaxPerSwitch int
	// Exhaustive reports whether the search space was fully explored
	// within the budget; when false the result is an upper bound.
	Exhaustive bool
}

// MinChangeSchedule searches *all* width-round schedules of a (well-nested
// or crossing) right-oriented set for the one with the fewest total
// configuration changes, where circuits are established by a centralized
// controller that holds connections across rounds. It answers whether the
// paper's two optimality goals — exactly-width rounds and O(1) per-switch
// changes — can coexist for a given input at all, independent of any
// distributed protocol (experiment E15).
//
// The search enumerates assignments of communications to rounds with
// per-round link-compatibility pruning; budget bounds the number of
// complete schedules evaluated. Exponential: intended for small instances.
func MinChangeSchedule(t *topology.Tree, s *comm.Set, budget int) (*MinChangeResult, error) {
	if t.Leaves() != s.N {
		return nil, fmt.Errorf("general: tree has %d leaves, set has N=%d", t.Leaves(), s.N)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.IsRightOriented() {
		return nil, fmt.Errorf("general: set must be right oriented")
	}
	width, err := s.Width(t)
	if err != nil {
		return nil, err
	}
	if s.Len() == 0 {
		return &MinChangeResult{Schedule: &sched.Schedule{Set: s.Clone()}, Exhaustive: true}, nil
	}

	// Precompute edge indices per communication.
	edges := make([][]int, s.Len())
	for i, c := range s.Comms {
		pe, err := t.PathEdges(c.Src, c.Dst)
		if err != nil {
			return nil, err
		}
		for _, e := range pe {
			edges[i] = append(edges[i], t.EdgeIndex(e))
		}
	}

	search := &minChangeSearch{
		t: t, s: s, width: width, edges: edges,
		used:   make([][]bool, width),
		assign: make([]int, s.Len()),
		budget: budget,
	}
	for r := range search.used {
		search.used[r] = make([]bool, t.DirectedEdgeCount())
	}
	for i := range search.assign {
		search.assign[i] = -1
	}
	search.best = -1
	search.dfs(0)

	if search.best < 0 {
		return nil, fmt.Errorf("general: no width-%d schedule found within budget (budget too small)", width)
	}
	rounds := make([][]comm.Comm, width)
	for i, r := range search.bestAssign {
		rounds[r] = append(rounds[r], s.Comms[i])
	}
	schedule := &sched.Schedule{Set: s.Clone(), Rounds: rounds}
	return &MinChangeResult{
		Schedule:     schedule,
		Changes:      search.best,
		MaxPerSwitch: search.bestMaxPerSwitch,
		Exhaustive:   !search.exhausted,
	}, nil
}

type minChangeSearch struct {
	t     *topology.Tree
	s     *comm.Set
	width int
	edges [][]int

	used   [][]bool // per round, per directed edge
	assign []int

	budget    int
	exhausted bool

	best             int
	bestAssign       []int
	bestMaxPerSwitch int
}

func (m *minChangeSearch) dfs(i int) {
	if m.exhausted {
		return
	}
	if i == len(m.assign) {
		if m.budget <= 0 {
			m.exhausted = true
			return
		}
		m.budget--
		changes, maxPer := m.evaluate()
		if m.best < 0 || changes < m.best {
			m.best = changes
			m.bestAssign = append([]int(nil), m.assign...)
			m.bestMaxPerSwitch = maxPer
		}
		return
	}
	for r := 0; r < m.width; r++ {
		ok := true
		for _, e := range m.edges[i] {
			if m.used[r][e] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, e := range m.edges[i] {
			m.used[r][e] = true
		}
		m.assign[i] = r
		m.dfs(i + 1)
		m.assign[i] = -1
		for _, e := range m.edges[i] {
			m.used[r][e] = false
		}
	}
}

// evaluate prices the current complete assignment: circuits established
// round by round over held crossbars, changes counted by the minimal-work
// trajectory realization.
func (m *minChangeSearch) evaluate() (changes, maxPerSwitch int) {
	switches := circuit.NewSwitches(m.t)
	configs := make([]circuit.RoundConfig, m.width)
	for r := 0; r < m.width; r++ {
		for i, round := range m.assign {
			if round != r {
				continue
			}
			// Compatibility was enforced during the DFS; Configure cannot
			// fail for in-range communications.
			_ = circuit.Configure(m.t, switches, m.s.Comms[i])
		}
		snap := circuit.RoundConfig{}
		m.t.EachSwitch(func(n topology.Node) { snap[n] = switches[n].Config() })
		configs[r] = snap
	}
	b := energy.Evaluate(m.t, configs, energy.Paper)
	// Per-switch maximum via a second pass.
	perSwitch := map[topology.Node]int{}
	prev := map[topology.Node]xbar.Config{}
	m.t.EachSwitch(func(n topology.Node) { prev[n] = xbar.Config{} })
	for _, cfgRound := range configs {
		m.t.EachSwitch(func(n topology.Node) {
			cur := cfgRound[n]
			for _, out := range []xbar.Side{xbar.L, xbar.R, xbar.P} {
				d := cur.Driver(out)
				if d != xbar.None && prev[n].Driver(out) != d {
					perSwitch[n]++
				}
			}
			prev[n] = cur
		})
	}
	for _, v := range perSwitch {
		if v > maxPerSwitch {
			maxPerSwitch = v
		}
	}
	return b.Changes, maxPerSwitch
}
