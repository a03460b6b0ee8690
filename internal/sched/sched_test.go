package sched

import (
	"math/rand"
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

// greedyPack is a minimal in-test scheduler: first round whose directed
// links are all free (the general package cannot be imported here — it
// depends on sched).
func greedyPack(t *testing.T, tr *topology.Tree, s *comm.Set) *Schedule {
	t.Helper()
	sch := &Schedule{Set: s.Clone()}
	var congestion [][]bool
	for _, c := range s.Comms {
		edges, err := tr.PathEdges(c.Src, c.Dst)
		if err != nil {
			t.Fatal(err)
		}
		placed := false
		for r := 0; r < len(sch.Rounds) && !placed; r++ {
			free := true
			for _, e := range edges {
				if congestion[r][tr.EdgeIndex(e)] {
					free = false
					break
				}
			}
			if free {
				for _, e := range edges {
					congestion[r][tr.EdgeIndex(e)] = true
				}
				sch.Rounds[r] = append(sch.Rounds[r], c)
				placed = true
			}
		}
		if !placed {
			row := make([]bool, tr.DirectedEdgeCount())
			for _, e := range edges {
				row[tr.EdgeIndex(e)] = true
			}
			congestion = append(congestion, row)
			sch.Rounds = append(sch.Rounds, []comm.Comm{c})
		}
	}
	return sch
}

// Differential round trip for UnmirrorSchedule: schedule the mirrored half
// of a decomposition, map it back, and the result must be a valid schedule
// of the original left-oriented set — same round count, and unmirroring
// twice is the identity.
func TestUnmirrorScheduleRoundTrip(t *testing.T) {
	tr := topology.MustNew(16)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		right, err := comm.RandomOriented(rng, 16, 1+rng.Intn(7))
		if err != nil {
			t.Fatal(err)
		}
		left := right.Mirror() // a purely left-oriented "original" set
		_, leftMirrored := comm.Decompose(left)
		mirroredSch := greedyPack(t, tr, leftMirrored)
		if err := mirroredSch.Verify(tr); err != nil {
			t.Fatalf("trial %d: mirrored schedule invalid: %v", trial, err)
		}
		back := UnmirrorSchedule(mirroredSch)
		if err := back.Verify(tr); err != nil {
			t.Fatalf("trial %d: unmirrored schedule invalid on the original line: %v", trial, err)
		}
		if back.NumRounds() != mirroredSch.NumRounds() {
			t.Fatalf("trial %d: unmirroring changed round count %d -> %d",
				trial, mirroredSch.NumRounds(), back.NumRounds())
		}
		// The unmirrored schedule covers exactly the original left set.
		if got, want := back.Set.String(), left.String(); got != want {
			t.Fatalf("trial %d: unmirrored set %q, want %q", trial, got, want)
		}
		// Involution: unmirroring twice restores the mirrored schedule.
		twice := UnmirrorSchedule(back)
		if twice.Set.String() != leftMirrored.String() {
			t.Fatalf("trial %d: double unmirror lost the set", trial)
		}
		for i := range twice.Rounds {
			for j, c := range twice.Rounds[i] {
				if c != mirroredSch.Rounds[i][j] {
					t.Fatalf("trial %d: double unmirror changed round %d", trial, i)
				}
			}
		}
	}
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

// FirstFit places communications in source order; on a set already listed
// in source order it must match greedyPack round for round, and its width
// must be the set's.
func TestFirstFitMatchesGreedyPack(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{8, 32, 128} {
		tr := topology.MustNew(n)
		for trial := 0; trial < 100; trial++ {
			s, err := comm.RandomTwoSided(rng, n, 1+rng.Intn(n/2))
			if err != nil {
				t.Fatal(err)
			}
			s.Comms = s.Sorted()
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
