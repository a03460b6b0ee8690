package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"cst/internal/comm"
	"cst/internal/topology"
)

// verifyOracle is Schedule.Verify as it was before the Verifier: two Go
// maps and a congestion table re-zeroed every round. Its one edit is the
// last loop, which walks the set rather than the map, so that of several
// unscheduled communications it names the first in the set's order, the
// one Verifier names, where the map named any of them.
func verifyOracle(t *topology.Tree, s *Schedule) error {
	if s.Set == nil {
		return fmt.Errorf("sched: schedule has no set")
	}
	if t.Leaves() != s.Set.N {
		return fmt.Errorf("sched: tree has %d leaves, set has N=%d", t.Leaves(), s.Set.N)
	}
	want := make(map[comm.Comm]int, s.Set.Len())
	for _, c := range s.Set.Comms {
		want[c]++
		if want[c] > 1 {
			return fmt.Errorf("sched: set contains duplicate communication %s", c)
		}
	}
	seen := make(map[comm.Comm]int, s.Set.Len())
	congestion := make([]int, t.DirectedEdgeCount())
	for i, round := range s.Rounds {
		for j := range congestion {
			congestion[j] = 0
		}
		for _, c := range round {
			if _, ok := want[c]; !ok {
				return fmt.Errorf("sched: round %d schedules %s, which is not in the set", i, c)
			}
			seen[c]++
			if seen[c] > 1 {
				return fmt.Errorf("sched: communication %s scheduled more than once (again in round %d)", c, i)
			}
			var reused topology.Edge
			clash := false
			err := t.EachPathEdge(c.Src, c.Dst, func(e topology.Edge) {
				idx := t.EdgeIndex(e)
				congestion[idx]++
				if congestion[idx] > 1 && (!clash || reused.Dir == topology.Down) {
					reused, clash = e, true
				}
			})
			if err != nil {
				return fmt.Errorf("sched: round %d: %v", i, err)
			}
			if clash {
				return fmt.Errorf("sched: round %d is incompatible: link %s used twice (by %s among others)", i, reused, c)
			}
		}
	}
	for _, c := range s.Set.Comms {
		if seen[c] == 0 {
			return fmt.Errorf("sched: communication %s never scheduled", c)
		}
	}
	return nil
}

// sameVerdict fails t unless err and the oracle's error agree, word for
// word.
func sameVerdict(t *testing.T, name string, err, want error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(want) {
		t.Errorf("%s: Verify says %v, the oracle %v", name, err, want)
	}
}

// Verify and one Verifier reused across every case give the oracle's
// verdict and error text on valid schedules and on every corruption: a
// missing, repeated, foreign or clashing communication, a communication
// listed twice in the set, a wrong n, out-of-range and self-loop pairs in
// the set or in a round, and a schedule with no set.
func TestVerifyMatchesOracle(t *testing.T) {
	c := func(src, dst int) comm.Comm { return comm.Comm{Src: src, Dst: dst} }
	nested := comm.NewSet(8, c(0, 7), c(1, 6), c(2, 3), c(5, 4))
	cases := []struct {
		name string
		sch  *Schedule
	}{
		{"valid", &Schedule{Set: nested, Rounds: [][]comm.Comm{{c(0, 7), c(5, 4)}, {c(1, 6), c(2, 3)}}}},
		{"valid, empty", &Schedule{Set: comm.NewSet(8)}},
		{"missing", &Schedule{Set: nested, Rounds: [][]comm.Comm{{c(0, 7)}, {c(1, 6)}}}},
		{"missing, all", &Schedule{Set: nested}},
		{"repeated", &Schedule{Set: nested, Rounds: [][]comm.Comm{{c(0, 7), c(5, 4)}, {c(1, 6), c(2, 3)}, {c(5, 4)}}}},
		{"repeated in a round", &Schedule{Set: nested, Rounds: [][]comm.Comm{{c(5, 4), c(5, 4)}}}},
		{"foreign", &Schedule{Set: nested, Rounds: [][]comm.Comm{{c(0, 7), c(6, 1)}}}},
		{"foreign after a clash-free round", &Schedule{Set: nested, Rounds: [][]comm.Comm{{c(0, 7)}, {c(3, 2)}}}},
		{"clashing", &Schedule{Set: nested, Rounds: [][]comm.Comm{{c(0, 7), c(1, 6)}, {c(2, 3), c(5, 4)}}}},
		{"clashing on the down leg", &Schedule{Set: comm.NewSet(8, c(0, 7), c(4, 6)),
			Rounds: [][]comm.Comm{{c(0, 7), c(4, 6)}}}},
		{"listed twice in the set", &Schedule{Set: comm.NewSet(8, c(0, 7), c(1, 6), c(0, 7)),
			Rounds: [][]comm.Comm{{c(0, 7)}, {c(1, 6)}}}},
		{"wrong n", &Schedule{Set: comm.NewSet(16, c(0, 7)), Rounds: [][]comm.Comm{{c(0, 7)}}}},
		{"out of range, scheduled", &Schedule{Set: comm.NewSet(8, c(0, 7), c(3, 9)),
			Rounds: [][]comm.Comm{{c(0, 7)}, {c(3, 9)}}}},
		{"negative, scheduled", &Schedule{Set: comm.NewSet(8, c(-1, 4)), Rounds: [][]comm.Comm{{c(-1, 4)}}}},
		{"out of range, unscheduled", &Schedule{Set: comm.NewSet(8, c(0, 7), c(3, 9)),
			Rounds: [][]comm.Comm{{c(0, 7)}}}},
		{"self loop, scheduled", &Schedule{Set: comm.NewSet(8, c(2, 2)), Rounds: [][]comm.Comm{{c(2, 2)}}}},
		{"self loop, unscheduled", &Schedule{Set: comm.NewSet(8, c(0, 1), c(2, 2)), Rounds: [][]comm.Comm{{c(0, 1)}}}},
		// Verify checks links, not roles: a PE's up and down links differ.
		{"PE in two roles", &Schedule{Set: comm.NewSet(8, c(0, 3), c(3, 5)), Rounds: [][]comm.Comm{{c(0, 3), c(3, 5)}}}},
		{"no set", &Schedule{Rounds: [][]comm.Comm{{c(0, 7)}}}},
	}
	tr := topology.MustNew(8)
	var v Verifier
	for _, tc := range cases {
		want := verifyOracle(tr, tc.sch)
		sameVerdict(t, tc.name, tc.sch.Verify(tr), want)
		sameVerdict(t, tc.name+" (reused)", v.Verify(tr, tc.sch), want)
		if (want == nil) != (tc.name == "valid" || tc.name == "valid, empty" || tc.name == "PE in two roles") {
			t.Errorf("%s: the oracle says %v", tc.name, want)
		}
	}

	// FirstFit schedules and their corruptions, on trees of changing size
	// through the same Verifier.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 400; trial++ {
		n := 4 << rng.Intn(5)
		tr := topology.MustNew(n)
		s, err := comm.RandomTwoSided(rng, n, 1+rng.Intn(n/2))
		if err != nil {
			t.Fatal(err)
		}
		ff, _ := FirstFit(tr, s)
		sch := &Schedule{Set: ff.Set, Rounds: make([][]comm.Comm, len(ff.Rounds))}
		for i, r := range ff.Rounds {
			sch.Rounds[i] = append([]comm.Comm(nil), r...)
		}
		r := rng.Intn(len(sch.Rounds))
		switch rng.Intn(4) {
		case 0: // drop one
			sch.Rounds[r] = sch.Rounds[r][1:]
		case 1: // repeat one, in its own round or another
			j := rng.Intn(len(sch.Rounds))
			sch.Rounds[j] = append(sch.Rounds[j], sch.Rounds[r][0])
		case 2: // merge two rounds
			if len(sch.Rounds) > 1 {
				sch.Rounds[0] = append(sch.Rounds[0], sch.Rounds[len(sch.Rounds)-1]...)
				sch.Rounds = sch.Rounds[:len(sch.Rounds)-1]
			}
		}
		name := fmt.Sprintf("trial %d (%v)", trial, sch.Rounds)
		want := verifyOracle(tr, sch)
		sameVerdict(t, name, sch.Verify(tr), want)
		sameVerdict(t, name+" (reused)", v.Verify(tr, sch), want)
	}
}

// FuzzVerifyMatchesOracle turns bytes into a set on 16 PEs, endpoints
// possibly out of range, looping or repeated, and a schedule of its
// communications and foreign ones; one Verifier checks every input and
// must agree with the oracle word for word.
func FuzzVerifyMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 15, 1, 14, 2, 3}, []byte{0, 0, 1, 1, 2, 0})
	f.Add([]byte{0, 15, 1, 14, 0, 15}, []byte{0, 0, 1, 1})
	f.Add([]byte{4, 20, 5, 5}, []byte{0, 0, 1, 1, 255, 2})
	f.Add([]byte{}, []byte{})
	tr := topology.MustNew(16)
	var v Verifier
	f.Fuzz(func(t *testing.T, set, rounds []byte) {
		s := &comm.Set{N: 16}
		for i := 0; i+1 < len(set) && len(s.Comms) < 12; i += 2 {
			s.Comms = append(s.Comms, comm.Comm{Src: int(int8(set[i])) % 20, Dst: int(int8(set[i+1])) % 20})
		}
		sch := &Schedule{Set: s, Rounds: make([][]comm.Comm, 4)}
		for i := 0; i+1 < len(rounds); i += 2 {
			k, r := int(rounds[i]), int(rounds[i+1])%len(sch.Rounds)
			c := comm.Comm{Src: k % 16, Dst: (k / 16) % 16}
			if k < 128 && len(s.Comms) > 0 {
				c = s.Comms[k%len(s.Comms)]
			}
			sch.Rounds[r] = append(sch.Rounds[r], c)
		}
		if want, err := verifyOracle(tr, sch), v.Verify(tr, sch); fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("set %v rounds %v: Verify says %v, the oracle %v", s.Comms, sch.Rounds, err, want)
		}
	})
}
