package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cst/internal/comm"
	"cst/internal/topology"
)

func set(t *testing.T, expr string) *comm.Set {
	t.Helper()
	s, err := comm.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// greedyPack is a minimal in-test scheduler (the general package cannot be
// imported here — it depends on sched): each communication, in ascending
// source order or, when none is rightward, descending, goes into the first
// round whose directed links are all free, and each round lists its
// communications in the set's order.
func greedyPack(t *testing.T, tr *topology.Tree, s *comm.Set) *Schedule {
	t.Helper()
	leftward := true
	for _, c := range s.Comms {
		leftward = leftward && c.Src > c.Dst
	}
	order := make([]int, s.Len())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := s.Comms[order[a]].Src, s.Comms[order[b]].Src
		if leftward {
			return x > y
		}
		return x < y
	})
	var congestion [][]bool
	rounds := make([]int, s.Len())
	for _, i := range order {
		edges, err := tr.PathEdges(s.Comms[i].Src, s.Comms[i].Dst)
		if err != nil {
			t.Fatal(err)
		}
		r := 0
		for ; r < len(congestion); r++ {
			free := true
			for _, e := range edges {
				free = free && !congestion[r][tr.EdgeIndex(e)]
			}
			if free {
				break
			}
		}
		if r == len(congestion) {
			congestion = append(congestion, make([]bool, tr.DirectedEdgeCount()))
		}
		for _, e := range edges {
			congestion[r][tr.EdgeIndex(e)] = true
		}
		rounds[i] = r
	}
	sch := &Schedule{Set: s.Clone(), Rounds: make([][]comm.Comm, len(congestion))}
	for i, c := range s.Comms {
		sch.Rounds[rounds[i]] = append(sch.Rounds[rounds[i]], c)
	}
	return sch
}

func TestVerifyAcceptsValidSchedule(t *testing.T) {
	s := set(t, "(())")
	tr := topology.MustNew(4)
	sch := &Schedule{
		Set: s,
		Rounds: [][]comm.Comm{
			{{Src: 0, Dst: 3}},
			{{Src: 1, Dst: 2}},
		},
	}
	if err := sch.Verify(tr); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if err := sch.VerifyOptimal(tr); err != nil {
		t.Fatalf("optimal schedule rejected: %v", err)
	}
}

func TestVerifyRejectsIncompatibleRound(t *testing.T) {
	s := set(t, "(())")
	tr := topology.MustNew(4)
	sch := &Schedule{
		Set:    s,
		Rounds: [][]comm.Comm{{{Src: 0, Dst: 3}, {Src: 1, Dst: 2}}},
	}
	err := sch.Verify(tr)
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("want incompatibility error, got %v", err)
	}
}

// Verify names the first reused link in source-to-destination order, the
// order PathEdges lists: on random sets crammed into one round, its error
// matches a reference walk over PathEdges word for word.
func TestVerifyNamesFirstReusedLink(t *testing.T) {
	tr := topology.MustNew(64)
	rng := rand.New(rand.NewSource(5))
	clashes := 0
	for trial := 0; trial < 300; trial++ {
		s, err := comm.RandomTwoSided(rng, 64, 2+rng.Intn(20))
		if err != nil {
			t.Fatal(err)
		}
		want := ""
		used := make(map[topology.Edge]bool)
	walk:
		for _, c := range s.Comms {
			edges, err := tr.PathEdges(c.Src, c.Dst)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range edges {
				if used[e] {
					want = "sched: round 0 is incompatible: link " + e.String() + " used twice (by " + c.String() + " among others)"
					break walk
				}
				used[e] = true
			}
		}
		err = (&Schedule{Set: s, Rounds: [][]comm.Comm{s.Comms}}).Verify(tr)
		if want == "" {
			if err != nil {
				t.Fatalf("set %v: compatible round rejected: %v", s.Comms, err)
			}
			continue
		}
		clashes++
		if err == nil || err.Error() != want {
			t.Fatalf("set %v: got %v, want %s", s.Comms, err, want)
		}
	}
	if clashes == 0 {
		t.Fatal("no trial reused a link")
	}
}

func TestVerifyRejectsMissingComm(t *testing.T) {
	s := set(t, "(())")
	tr := topology.MustNew(4)
	sch := &Schedule{Set: s, Rounds: [][]comm.Comm{{{Src: 0, Dst: 3}}}}
	err := sch.Verify(tr)
	if err == nil || !strings.Contains(err.Error(), "never scheduled") {
		t.Fatalf("want missing-comm error, got %v", err)
	}
}

func TestVerifyRejectsDuplicate(t *testing.T) {
	s := set(t, "(.).")
	tr := topology.MustNew(4)
	sch := &Schedule{
		Set:    s,
		Rounds: [][]comm.Comm{{{Src: 0, Dst: 2}}, {{Src: 0, Dst: 2}}},
	}
	err := sch.Verify(tr)
	if err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Fatalf("want duplicate error, got %v", err)
	}
}

func TestVerifyRejectsForeignComm(t *testing.T) {
	s := set(t, "(.).")
	tr := topology.MustNew(4)
	sch := &Schedule{
		Set:    s,
		Rounds: [][]comm.Comm{{{Src: 0, Dst: 2}, {Src: 1, Dst: 3}}},
	}
	err := sch.Verify(tr)
	if err == nil || !strings.Contains(err.Error(), "not in the set") {
		t.Fatalf("want foreign-comm error, got %v", err)
	}
}

func TestVerifyRejectsSizeMismatch(t *testing.T) {
	s := set(t, "(.).")
	sch := &Schedule{Set: s, Rounds: nil}
	if err := sch.Verify(topology.MustNew(8)); err == nil {
		t.Fatal("tree size mismatch: want error")
	}
	empty := &Schedule{}
	if err := empty.Verify(topology.MustNew(4)); err == nil {
		t.Fatal("nil set: want error")
	}
}

func TestVerifyOppositeDirectionsShareLink(t *testing.T) {
	// 1->2 and 3->0 use the same links around the root but in opposite
	// directions; that is compatible.
	s := comm.NewSet(4, comm.Comm{Src: 1, Dst: 2}, comm.Comm{Src: 3, Dst: 0})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	tr := topology.MustNew(4)
	sch := &Schedule{
		Set:    s,
		Rounds: [][]comm.Comm{{{Src: 1, Dst: 2}, {Src: 3, Dst: 0}}},
	}
	if err := sch.Verify(tr); err != nil {
		t.Fatalf("opposite directions must be compatible: %v", err)
	}
}

func TestVerifyOptimalFlagsSlack(t *testing.T) {
	s := set(t, "()()")
	tr := topology.MustNew(4)
	sch := &Schedule{
		Set: s,
		Rounds: [][]comm.Comm{
			{{Src: 0, Dst: 1}},
			{{Src: 2, Dst: 3}},
		},
	}
	if err := sch.Verify(tr); err != nil {
		t.Fatalf("schedule is valid, just not optimal: %v", err)
	}
	if err := sch.VerifyOptimal(tr); err == nil {
		t.Fatal("two rounds for a width-1 set must fail VerifyOptimal")
	}
}

func TestScheduleStats(t *testing.T) {
	sch := &Schedule{
		Set: set(t, "(())"),
		Rounds: [][]comm.Comm{
			{{Src: 0, Dst: 3}},
			{{Src: 1, Dst: 2}},
		},
	}
	if sch.NumRounds() != 2 {
		t.Errorf("NumRounds = %d", sch.NumRounds())
	}
	if sch.TotalScheduled() != 2 {
		t.Errorf("TotalScheduled = %d", sch.TotalScheduled())
	}
	sizes := sch.RoundSizes()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 1 {
		t.Errorf("RoundSizes = %v", sizes)
	}
	str := sch.String()
	if !strings.Contains(str, "round 0: 0->3") || !strings.Contains(str, "round 1: 1->2") {
		t.Errorf("String = %q", str)
	}
}

func TestVerifyRejectsDuplicateInSet(t *testing.T) {
	s := comm.NewSet(4, comm.Comm{Src: 0, Dst: 2}, comm.Comm{Src: 0, Dst: 2})
	sch := &Schedule{Set: s, Rounds: [][]comm.Comm{{{Src: 0, Dst: 2}}}}
	if err := sch.Verify(topology.MustNew(4)); err == nil {
		t.Fatal("duplicate comm in set: want error")
	}
}

// FirstFit must match greedyPack round for round on two-sided sets and on
// one-orientation sets in both orientations, crossing ones included, and
// its width must be the set's.
func TestFirstFitMatchesGreedyPack(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{8, 32, 128} {
		tr := topology.MustNew(n)
		for trial := 0; trial < 100; trial++ {
			s, err := comm.RandomTwoSided(rng, n, 1+rng.Intn(n/2))
			if err != nil {
				t.Fatal(err)
			}
			right, err := comm.RandomOriented(rng, n, 1+rng.Intn(n/2))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*comm.Set{s, right, right.Mirror()} {
				got, width := FirstFit(tr, s)
				if want := greedyPack(t, tr, s); got.String() != want.String() {
					t.Fatalf("set %v: FirstFit\n%sgreedyPack\n%s", s.Comms, got, want)
				}
				if w, err := s.Width(tr); err != nil || width != w {
					t.Fatalf("set %v: FirstFit width %d, set width %d (%v)", s.Comms, width, w, err)
				}
				if err := got.Verify(tr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// FirstFit of a one-orientation set, crossing or well nested, is the
// mirror image of FirstFit of its mirror: the same round for each
// communication, so the same rounds listed in the same order, and the
// same width.
func TestFirstFitMirrorsOneOrientationSets(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{4, 16, 64, 256} {
		tr := topology.MustNew(n)
		for trial := 0; trial < 100; trial++ {
			gen := comm.RandomOriented
			if trial%2 == 1 {
				gen = comm.RandomWellNested
			}
			right, err := gen(rng, n, 1+rng.Intn(n/2))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*comm.Set{right, right.Mirror()} {
				// The first call's schedule is FirstFitter storage, so it is
				// copied out before the second call.
				var f FirstFitter
				sch, width := f.FirstFit(tr, s)
				want := make([][]comm.Comm, len(sch.Rounds))
				for r, round := range sch.Rounds {
					for _, c := range round {
						want[r] = append(want[r], comm.Comm{Src: n - 1 - c.Src, Dst: n - 1 - c.Dst})
					}
				}
				mirror, mirrorWidth := f.FirstFit(tr, s.Mirror())
				if !reflect.DeepEqual(mirror.Rounds, want) || mirrorWidth != width {
					t.Fatalf("set %v (width %d): FirstFit of its mirror (width %d)\n%v\nwant\n%v", s.Comms, width, mirrorWidth, mirror.Rounds, want)
				}
			}
		}
	}
}

// Rounds past 64 live in a second block of the occupancy table: 127
// pairwise-crossing circuits rightward through the root of a 256-PE tree
// need one round each, a leftward circuit through the root still joins
// round 0, and a 128th rightward one opens round 127.
func TestFirstFitPastOneBlock(t *testing.T) {
	tr := topology.MustNew(256)
	s := &comm.Set{N: 256}
	for i := 0; i < 127; i++ {
		s.Comms = append(s.Comms, comm.Comm{Src: i, Dst: 128 + i})
	}
	s.Comms = append(s.Comms, comm.Comm{Src: 255, Dst: 127})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	got, width := FirstFit(tr, s)
	if got.NumRounds() != 127 || width != 127 {
		t.Fatalf("%d rounds, width %d; want 127, 127", got.NumRounds(), width)
	}
	if r0 := got.Rounds[0]; len(r0) != 2 || r0[1] != (comm.Comm{Src: 255, Dst: 127}) {
		t.Fatalf("round 0 = %v, want 0->128 and 255->127", r0)
	}
	if err := got.Verify(tr); err != nil {
		t.Fatal(err)
	}
	var occ occupancy
	occ.reset(tr)
	for _, c := range s.Comms[:127] {
		occ.place(c)
	}
	if r := occ.place(comm.Comm{Src: 127, Dst: 255}); r != 127 {
		t.Fatalf("a circuit through the root after 127 rounds went to round %d, want 127", r)
	}
	if occ.rounds != 128 || occ.width != 128 {
		t.Fatalf("occupancy: %d rounds, width %d; want 128, 128", occ.rounds, occ.width)
	}
}
