package sched

import (
	"cmp"
	"math/bits"
	"slices"

	"cst/internal/comm"
	"cst/internal/topology"
)

// occupancy is the per-round link table of a schedule under construction:
// for every round, the directed tree links its circuits already hold. A
// round is then an edge-disjoint set of circuits, the per-slot matching of
// circuit scheduling (PAPERS.md: "Better Algorithms for Hybrid Circuit and
// Packet Switching"). place adds a circuit to the first round whose links
// on its path are all free. The table also counts every link's load over
// all rounds, so the set's width falls out of the same pass.
//
// Rounds are bit columns: bit j of busy[k*links+e] is set while round
// 64k+j holds link e, so finding a free round for a circuit ORs one word
// per link on its path.
type occupancy struct {
	t      *topology.Tree
	links  int      // t.DirectedEdgeCount(): the table's columns
	busy   []uint64 // busy[k*links+e] bit j: round 64k+j holds link e
	load   []int    // load[e]: circuits holding link e, over all rounds
	path   []int    // the links of the circuit being placed
	rounds int
	width  int
}

// newOccupancy returns an empty table for t.
func newOccupancy(t *topology.Tree) *occupancy {
	links := t.DirectedEdgeCount()
	return &occupancy{
		t:     t,
		links: links,
		busy:  make([]uint64, links),
		load:  make([]int, links),
		path:  make([]int, 0, 2*t.Levels()),
	}
}

// place puts c into the lowest-numbered round where every link on its path
// is free, opening a new round when none is, and returns that round. c
// must be a valid circuit of t: two distinct PEs in range.
func (o *occupancy) place(c comm.Comm) int {
	path := o.path[:0]
	_ = o.t.EachPathEdge(c.Src, c.Dst, func(e topology.Edge) {
		path = append(path, o.t.EdgeIndex(e))
	})
	o.path = path

	// Bits at or past o.rounds are clear in every column, so the lowest
	// free bit is never past o.rounds; only a full last block finds none.
	round := o.rounds
	for k := 0; 64*k < o.rounds; k++ {
		col := o.busy[k*o.links : (k+1)*o.links]
		var held uint64
		for _, e := range path {
			held |= col[e]
		}
		if held != ^uint64(0) {
			round = 64*k + bits.TrailingZeros64(^held)
			break
		}
	}
	if round == o.rounds {
		if round == 64*(len(o.busy)/o.links) {
			o.busy = append(o.busy, make([]uint64, o.links)...)
		}
		o.rounds++
	}
	col, bit := o.busy[round/64*o.links:], uint64(1)<<(round%64)
	for _, e := range path {
		col[e] |= bit
		o.load[e]++
		o.width = max(o.width, o.load[e])
	}
	return round
}

// FirstFit schedules a valid set on t — either orientation, crossing spans
// allowed — by placing its communications in left-to-right source order on
// an occupancy table. Each round lists its communications in the set's
// order. It also returns the set's width, counted in the same pass. The
// set is not checked: callers validate it first.
func FirstFit(t *topology.Tree, s *comm.Set) (*Schedule, int) {
	order := make([]int, s.Len())
	for i := range order {
		order[i] = i
	}
	// Sources are distinct in a valid set, so the order is total.
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(s.Comms[a].Src, s.Comms[b].Src) })
	occ := newOccupancy(t)
	rounds := make([]int, s.Len())
	for _, i := range order {
		rounds[i] = occ.place(s.Comms[i])
	}
	return FromRounds(s, rounds), occ.width
}

// FromRounds builds the schedule that performs communication i of s in
// round rounds[i]; rounds must number 0, 1, ... without gaps. Each round
// lists its communications in the set's order, and all rounds share one
// backing array.
func FromRounds(s *comm.Set, rounds []int) *Schedule {
	n := 0
	for _, r := range rounds {
		n = max(n, r+1)
	}
	sizes := make([]int, n)
	for _, r := range rounds {
		sizes[r]++
	}
	out := make([][]comm.Comm, n)
	flat := make([]comm.Comm, len(rounds))
	for r, k := range sizes {
		out[r], flat = flat[:0:k], flat[k:]
	}
	for i, r := range rounds {
		out[r] = append(out[r], s.Comms[i])
	}
	return &Schedule{Set: s.Clone(), Rounds: out}
}
