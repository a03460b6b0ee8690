// Package general schedules *arbitrary* right-oriented communication sets —
// crossing spans allowed — on the CST, the first extension named in the
// paper's concluding remarks ("the study of other communication patterns on
// the CST").
//
// Scheduling is graph coloring: two communications conflict when their
// circuits share a directed tree link, rounds are color classes, and the
// width (maximum per-link congestion) is a clique-size lower bound on the
// round count. The package provides
//
//   - the conflict graph itself (the unchecked Graph also takes mixed
//     orientations, which the hybrid planner colors whole),
//   - FirstFit: assign each communication (in left-to-right source order)
//     the first round whose links are all free, on sched.FirstFit's
//     per-round occupancy table — fast, no optimality promise,
//   - Exact: branch-and-bound chromatic search — optimal, exponential worst
//     case, bounded by an explicit node budget.
//
// Experiment E11 measures how often FirstFit is optimal and how often the
// optimum exceeds the width lower bound.
package general

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"cst/internal/comm"
	"cst/internal/sched"
	"cst/internal/topology"
)

// ConflictGraph is an adjacency list over communication indices (into
// Set.Comms): i and j are adjacent when their circuits share a directed
// link. A graph built from a set keeps the set and its width, so Exact
// reuses it instead of walking the paths again.
type ConflictGraph struct {
	// Adj[i] lists the neighbours of communication i, ascending.
	Adj [][]int

	set   *comm.Set // vertex i is set.Comms[i]
	width int       // the set's link width: Exact's clique lower bound
}

// Degree returns the number of conflicts of communication i.
func (g *ConflictGraph) Degree(i int) int { return len(g.Adj[i]) }

// MaxDegree returns the largest degree.
func (g *ConflictGraph) MaxDegree() int {
	maxd := 0
	for i := range g.Adj {
		if len(g.Adj[i]) > maxd {
			maxd = len(g.Adj[i])
		}
	}
	return maxd
}

// Edges returns the number of conflict pairs.
func (g *ConflictGraph) Edges() int {
	total := 0
	for i := range g.Adj {
		total += len(g.Adj[i])
	}
	return total / 2
}

// Conflicts builds the conflict graph of a valid right-oriented set.
func Conflicts(t *topology.Tree, s *comm.Set) (*ConflictGraph, error) {
	if err := check(t, s); err != nil {
		return nil, err
	}
	return Graph(t, s), nil
}

// check makes the input checks of the exported entry points: s is valid,
// right oriented and on t's leaf count.
func check(t *topology.Tree, s *comm.Set) error {
	if t.Leaves() != s.N {
		return fmt.Errorf("general: tree has %d leaves, set has N=%d", t.Leaves(), s.N)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	if !s.IsRightOriented() {
		return fmt.Errorf("general: set must be right oriented (decompose two-sided sets first)")
	}
	return nil
}

// Graph builds the conflict graph of a valid set on t's leaf count, of
// either orientation or both: a circuit's links are directed, so a
// left-oriented circuit conflicts only with circuits using a link in the
// same direction. It skips the checks Conflicts makes, so a planner that
// has validated a mixed set colors it whole. The graph keeps s, which must
// not change while the graph is in use.
func Graph(t *topology.Tree, s *comm.Set) *ConflictGraph {
	n := s.Len()
	// links[off[i]:off[i+1]] are the directed links of circuit i. A valid
	// set's endpoints are distinct PEs of t, so no walk can fail.
	off := make([]int, n+1)
	links := make([]int, 0, 2*t.Levels()*n)
	for i, c := range s.Comms {
		_ = t.EachPathEdge(c.Src, c.Dst, func(e topology.Edge) {
			links = append(links, t.EdgeIndex(e))
		})
		off[i+1] = len(links)
	}
	// Counting sort by link: users[start[e]:start[e+1]] lists, ascending,
	// the circuits using link e. The largest list is the set's width.
	start := make([]int, t.DirectedEdgeCount()+2)
	for _, e := range links {
		start[e+2]++
	}
	width, pairs := 0, 0
	for e := 2; e < len(start); e++ {
		width = max(width, start[e])
		pairs += start[e] * (start[e] - 1)
		start[e] += start[e-1]
	}
	users := make([]int, len(links))
	for i := 0; i < n; i++ {
		for _, e := range links[off[i]:off[i+1]] {
			users[start[e+1]] = i
			start[e+1]++
		}
	}
	// The neighbours of i are the other users of its links: mark each
	// (seen[j] == i+1), then list the marked index range in order, so every
	// list comes out ascending without a sort. All lists share one backing
	// array.
	g := &ConflictGraph{Adj: make([][]int, n), set: s, width: width}
	flat := make([]int, 0, min(pairs, n*(n-1)))
	seen := make([]int, n)
	for i := 0; i < n; i++ {
		begin, lo, hi := len(flat), n, -1
		for _, e := range links[off[i]:off[i+1]] {
			for _, j := range users[start[e]:start[e+1]] {
				if j != i {
					seen[j] = i + 1
					lo, hi = min(lo, j), max(hi, j)
				}
			}
		}
		for j := lo; j <= hi; j++ {
			if seen[j] == i+1 {
				flat = append(flat, j)
			}
		}
		g.Adj[i] = flat[begin:len(flat):len(flat)]
	}
	return g
}

// FirstFit schedules the set by scanning communications in left-to-right
// source order and placing each in the lowest-numbered round where all of
// its links are free (sched.FirstFit's occupancy table; no conflict graph
// is built). The result is a valid schedule with at most MaxDegree+1
// rounds; on well-nested sets it uses exactly the width.
func FirstFit(t *topology.Tree, s *comm.Set) (*sched.Schedule, error) {
	if err := check(t, s); err != nil {
		return nil, err
	}
	ff, _ := sched.FirstFit(t, s)
	return ff, nil
}

// Exact finds a minimum-round schedule by branch-and-bound chromatic
// search, seeded with a greedy coloring as the incumbent. nodeBudget
// bounds the search-tree size; when exhausted, Exact returns the best
// schedule found so far along with ErrBudget.
func Exact(t *topology.Tree, s *comm.Set, nodeBudget int) (*sched.Schedule, error) {
	g, err := Conflicts(t, s)
	if err != nil {
		return nil, err
	}
	return g.Exact(nodeBudget)
}

// Exact is the package-level Exact on the graph's own set, bounded below
// by the set's width; g must come from Conflicts or Graph.
func (g *ConflictGraph) Exact(nodeBudget int) (*sched.Schedule, error) {
	s := g.set
	if s.Len() == 0 {
		return &sched.Schedule{Set: s.Clone()}, nil
	}
	// Incumbent: greedy in descending-degree order (Welsh–Powell), often
	// tighter than source order.
	order := identity(s.Len())
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(g.Degree(b), g.Degree(a)) })
	best := assignGreedy(g, order)
	bestK := numColors(best)

	bb := &searcher{g: g, order: order, budget: nodeBudget}
	cur := make([]int, s.Len())
	for i := range cur {
		cur[i] = -1
	}
	if improved, _ := bb.search(cur, 0, 0, bestK, g.width); improved != nil {
		best = improved
	}
	schedule := sched.FromRounds(s, best)
	if bb.exhausted {
		return schedule, ErrBudget
	}
	return schedule, nil
}

// identity returns 0, 1, ..., n-1.
func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// ErrBudget reports that Exact ran out of search nodes; the schedule
// returned alongside is the best incumbent, valid but possibly suboptimal.
var ErrBudget = fmt.Errorf("general: search budget exhausted; result may be suboptimal")

// Incumbent adapts an Exact result for callers that prefer a valid,
// possibly suboptimal schedule over an error. Budget exhaustion is not a
// failure — Exact always carries its best incumbent alongside ErrBudget —
// so Incumbent downgrades it to exhausted=true and keeps the schedule.
// Any other error is returned as is with a nil schedule. Idiomatic use:
//
//	sch, exhausted, err := general.Incumbent(general.Exact(t, s, budget))
func Incumbent(s *sched.Schedule, err error) (sch *sched.Schedule, exhausted bool, outErr error) {
	if err == nil {
		return s, false, nil
	}
	if errors.Is(err, ErrBudget) {
		return s, true, nil
	}
	return nil, false, err
}

type searcher struct {
	g         *ConflictGraph
	order     []int
	budget    int
	exhausted bool
}

// search assigns colors to order[pos:] with at most `limit-1`+1 colors,
// returning an improved complete coloring (or nil) and its color count.
// lower is the clique lower bound: once limit == lower the incumbent is
// provably optimal and the search stops.
func (b *searcher) search(cur []int, pos, used, limit, lower int) ([]int, int) {
	if limit <= lower {
		return nil, 0
	}
	if b.budget <= 0 {
		b.exhausted = true
		return nil, 0
	}
	b.budget--
	if pos == len(b.order) {
		if used >= limit {
			return nil, 0
		}
		out := append([]int(nil), cur...)
		return out, used
	}
	v := b.order[pos]
	var bestSol []int
	bestK := limit
	// Try existing colors, then one fresh color; never exceed color index
	// bestK-2 so every completion strictly improves the incumbent. bestK
	// may tighten mid-loop, so the bound is re-checked per iteration.
	for c := 0; c <= used && c < len(b.g.Adj); c++ {
		if c > bestK-2 {
			break
		}
		ok := true
		for _, nb := range b.g.Adj[v] {
			if cur[nb] == c {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cur[v] = c
		newUsed := used
		if c == used {
			newUsed = used + 1
		}
		if sol, k := b.search(cur, pos+1, newUsed, bestK, lower); sol != nil && k < bestK {
			bestSol, bestK = sol, k
			if bestK <= lower {
				cur[v] = -1
				return bestSol, bestK
			}
		}
		cur[v] = -1
		if b.exhausted {
			break
		}
	}
	return bestSol, bestK
}

// assignGreedy colors vertices in the given order with the smallest legal
// color.
func assignGreedy(g *ConflictGraph, order []int) []int {
	colors := make([]int, len(g.Adj))
	for i := range colors {
		colors[i] = -1
	}
	// taken[c] == v+1 while coloring v marks color c as a neighbour's.
	taken := make([]int, len(g.Adj)+1)
	for _, v := range order {
		for _, nb := range g.Adj[v] {
			if c := colors[nb]; c >= 0 {
				taken[c] = v + 1
			}
		}
		c := 0
		for taken[c] == v+1 {
			c++
		}
		colors[v] = c
	}
	return colors
}

func numColors(colors []int) int {
	maxc := -1
	for _, c := range colors {
		if c > maxc {
			maxc = c
		}
	}
	return maxc + 1
}
