package sched

import (
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

// reset empties the table for t, reusing its arrays: it clears the blocks
// the last schedule used, and grows the arrays when t has more links than
// any earlier tree.
func (o *occupancy) reset(t *topology.Tree) {
	clear(o.busy[:(o.rounds+63)/64*o.links])
	clear(o.load[:o.links])
	o.t, o.links, o.rounds, o.width = t, t.DirectedEdgeCount(), 0, 0
	if len(o.busy) < o.links {
		o.busy = make([]uint64, o.links)
	}
	if len(o.load) < o.links {
		o.load = make([]int, o.links)
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
		if need := (round/64 + 1) * o.links; need > len(o.busy) {
			o.busy = append(o.busy, make([]uint64, need-len(o.busy))...)
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
// an occupancy table. A set with no rightward communication is placed
// right to left instead, in its mirror image's source order, so a set and
// its mirror image get mirrored schedules. On a well-nested set of either
// orientation this takes exactly the set's width (DESIGN.md §6b proves
// it), and padr.TestCSAIsFirstFit checks that the rounds are the paper's
// CSA schedule, round for round. Each round lists its communications in
// the set's order. It also returns the set's width, counted in the same
// pass. The set is not checked: callers validate it first.
func FirstFit(t *topology.Tree, s *comm.Set) (*Schedule, int) {
	var f FirstFitter
	return f.FirstFit(t, s)
}

// FirstFitter is FirstFit with the occupancy table, the source order, the
// round assignment and the schedule's storage kept between calls, so a
// caller fitting set after set allocates nothing once they have grown to
// its largest set and tree. The zero value is ready to use. The schedule
// FirstFit returns, its Set included, is the FirstFitter's storage: valid
// only until its next call. A FirstFitter is not safe for concurrent use.
type FirstFitter struct {
	occ    occupancy
	order  []uint64 // key<<32 | index, sorted; the key is the source, or N-1-source
	rounds []int
	arena  arena
}

// FirstFit is the package-level FirstFit on f's buffers.
func (f *FirstFitter) FirstFit(t *topology.Tree, s *comm.Set) (*Schedule, int) {
	// Sources are distinct PEs of t in a valid set, so sorting source<<32|i
	// orders the communications totally by source; N-1-source orders a
	// leftward set as its mirror image.
	leftward := !slices.ContainsFunc(s.Comms, comm.Comm.RightOriented)
	order := f.order[:0]
	for i, c := range s.Comms {
		key := c.Src
		if leftward {
			key = s.N - 1 - c.Src
		}
		order = append(order, uint64(key)<<32|uint64(i))
	}
	f.order = order
	slices.Sort(order)
	f.occ.reset(t)
	f.rounds = slices.Grow(f.rounds[:0], len(order))[:len(order)]
	for _, key := range order {
		i := int(key & (1<<32 - 1))
		f.rounds[i] = f.occ.place(s.Comms[i])
	}
	return f.arena.fromRounds(s, f.rounds), f.occ.width
}

// FromRounds builds the schedule that performs communication i of s in
// round rounds[i]; rounds must number 0, 1, ... without gaps. Each round
// lists its communications in the set's order, and all rounds share one
// backing array. The schedule's Set is a copy of s.
func FromRounds(s *comm.Set, rounds []int) *Schedule {
	var a arena
	return a.fromRounds(s, rounds)
}

// arena is the storage of one schedule, rebuilt in place by fromRounds:
// the Schedule, its copy of the set, the round lists and their one backing
// array.
type arena struct {
	sch   Schedule
	set   comm.Set
	lists [][]comm.Comm
	flat  []comm.Comm
	sizes []int
}

// fromRounds is FromRounds into a's storage, which the schedule it returns
// is valid only until the next call.
func (a *arena) fromRounds(s *comm.Set, rounds []int) *Schedule {
	n := 0
	for _, r := range rounds {
		n = max(n, r+1)
	}
	sizes := slices.Grow(a.sizes[:0], n)[:n]
	clear(sizes)
	for _, r := range rounds {
		sizes[r]++
	}
	lists := slices.Grow(a.lists[:0], n)[:n]
	flat := slices.Grow(a.flat[:0], len(rounds))[:len(rounds)]
	a.sizes, a.lists, a.flat = sizes, lists, flat
	for r, k := range sizes {
		lists[r], flat = flat[:0:k], flat[k:]
	}
	for i, r := range rounds {
		lists[r] = append(lists[r], s.Comms[i])
	}
	a.set = comm.Set{N: s.N, Comms: append(a.set.Comms[:0], s.Comms...)}
	a.sch = Schedule{Set: &a.set, Rounds: lists}
	return &a.sch
}
