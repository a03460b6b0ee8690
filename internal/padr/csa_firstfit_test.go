package padr_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cst/internal/comm"
	"cst/internal/padr"
	"cst/internal/sched"
	"cst/internal/topology"
)

// csaMatchesFirstFit runs padr on the right-oriented well-nested set s and
// sched.FirstFit on s, or on s's mirror image when mirrored, and returns
// an error naming the first round whose communications differ, padr's
// mirrored in the second case. Rounds are compared as sets: FirstFit lists
// a round in the set's order, padr in its own.
func csaMatchesFirstFit(tr *topology.Tree, s *comm.Set, mirrored bool) error {
	e, err := padr.New(tr, s)
	if err != nil {
		return err
	}
	res, err := e.Run()
	if err != nil {
		return fmt.Errorf("set %s: %v", s, err)
	}
	in := s
	if mirrored {
		in = s.Mirror()
	}
	ff, _ := sched.FirstFit(tr, in)
	if ff.NumRounds() != res.Rounds {
		return fmt.Errorf("set %s (mirrored %t): padr %d rounds, first-fit %d", s, mirrored, res.Rounds, ff.NumRounds())
	}
	for r, round := range res.Schedule.Rounds {
		want := slices.Clone(round)
		if mirrored {
			for i, c := range want {
				want[i] = comm.Comm{Src: s.N - 1 - c.Src, Dst: s.N - 1 - c.Dst}
			}
		}
		got := slices.Clone(ff.Rounds[r])
		bySrc := func(a, b comm.Comm) int { return cmp.Compare(a.Src, b.Src) }
		slices.SortFunc(want, bySrc)
		slices.SortFunc(got, bySrc)
		if !slices.Equal(got, want) {
			return fmt.Errorf("set %s (mirrored %t): round %d: first-fit %v, padr %v", s, mirrored, r, got, want)
		}
	}
	return nil
}

// padr's CSA and source-order first-fit schedule alike. On every
// right-oriented well-nested set at N = 2, 4 and 8, and on seeded random
// ones at N = 16 to 1,024, padr's rounds hold the same communications as
// sched.FirstFit's, round for round; on each set's mirror image, which
// FirstFit places right to left, they are padr's rounds mirrored. The
// same check over every set at N = 16 takes about 15 s and is recorded in
// EXPERIMENTS.md C1 rather than run here.
func TestCSAIsFirstFit(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		tr := topology.MustNew(n)
		count := 0
		err := comm.EnumerateWellNested(n, n/2, func(s *comm.Set) error {
			count++
			for _, mirrored := range []bool{false, true} {
				if err := csaMatchesFirstFit(tr, s, mirrored); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		t.Logf("N=%d: all %d sets and their mirror images", n, count)
	}
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{16, 64, 256, 1024} {
		tr := topology.MustNew(n)
		for i := 0; i < 60; i++ {
			s, err := comm.RandomWellNested(rng, n, 1+rng.Intn(n/2))
			if err != nil {
				t.Fatal(err)
			}
			for _, mirrored := range []bool{false, true} {
				if err := csaMatchesFirstFit(tr, s, mirrored); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// FuzzCSAIsFirstFit draws a random well-nested set from seed, at N = 2 to
// 1,024 as size picks and with 1 to N/2 communications as comms picks, and
// checks padr against sched.FirstFit on it or, when size's top bit is set,
// on its mirror image.
func FuzzCSAIsFirstFit(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(5))
	f.Add(int64(7), uint8(0x80|5), uint16(40))
	f.Add(int64(42), uint8(9), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, comms uint16) {
		n := 2 << (size % 10)
		s, err := comm.RandomWellNested(rand.New(rand.NewSource(seed)), n, 1+int(comms)%(n/2))
		if err != nil {
			t.Fatal(err)
		}
		if err := csaMatchesFirstFit(topology.MustNew(n), s, size >= 0x80); err != nil {
			t.Fatal(err)
		}
	})
}
