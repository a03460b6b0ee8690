package hybrid

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cst/internal/comm"
	"cst/internal/general"
	"cst/internal/power"
	"cst/internal/topology"
)

// planDigest is the SHA-256 of every plan TestPlanDigest draws. A change to
// any field of any of those plans changes it, so a change to the planner
// that must keep its plans (a faster graph build, a cheaper replay) keeps
// this constant.
const planDigest = "2362067a290f7a13bff87abbe9cd819af364624999c144b6b019650601b04e2c"

// hardBlock is a width-2 set on 16 PEs whose Welsh–Powell coloring needs 3
// rounds, so Exact's branch-and-bound search starts on it and a tiny node
// budget runs out (general's TestIncumbentKeptOnBudget uses it too).
var hardBlock = []comm.Comm{
	{Src: 4, Dst: 7}, {Src: 9, Dst: 15}, {Src: 5, Dst: 13}, {Src: 1, Dst: 6},
	{Src: 8, Dst: 11}, {Src: 0, Dst: 3}, {Src: 2, Dst: 10}, {Src: 12, Dst: 14},
}

// budgetSet draws a set on 64 PEs from four aligned 16-PE blocks: each
// block holds hardBlock, its mirror image, or a random two-sided set.
// Blocks occupy disjoint subtrees, so their circuits never conflict.
func budgetSet(rng *rand.Rand) *comm.Set {
	s := &comm.Set{N: 64}
	for b := 0; b < 4; b++ {
		base := 16 * b
		switch rng.Intn(3) {
		case 0:
			for _, c := range hardBlock {
				s.Comms = append(s.Comms, comm.Comm{Src: base + c.Src, Dst: base + c.Dst})
			}
		case 1:
			for _, c := range hardBlock {
				s.Comms = append(s.Comms, comm.Comm{Src: base + 15 - c.Src, Dst: base + 15 - c.Dst})
			}
		default:
			r, err := comm.RandomTwoSided(rng, 16, 1+rng.Intn(8))
			if err != nil {
				panic(err)
			}
			for _, c := range r.Comms {
				s.Comms = append(s.Comms, comm.Comm{Src: base + c.Src, Dst: base + c.Dst})
			}
		}
	}
	return s
}

// TestPlanDigest pins the planner's output exactly. It hashes every Plan
// field, the schedule's set and Schedule.String() over seeded
// RandomTwoSided sets at N=16, 64 and 256 (default options, more peeled
// batches, stateless billing) and over sets built to exhaust a tiny exact
// budget, so the ErrBudget incumbent path is hashed too.
func TestPlanDigest(t *testing.T) {
	random := func(n, maxComms int) func(*rand.Rand) *comm.Set {
		return func(rng *rand.Rand) *comm.Set {
			s, err := comm.RandomTwoSided(rng, n, 1+rng.Intn(maxComms))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	h := sha256.New()
	exhausted := 0
	for i, shape := range []struct {
		n, sets int
		gen     func(*rand.Rand) *comm.Set
		opt     Option
		budget  int // a small exact budget; 0 keeps the default
	}{
		{n: 16, sets: 300, gen: random(16, 8)},
		{n: 64, sets: 300, gen: random(64, 32)},
		{n: 256, sets: 40, gen: random(256, 64)},
		{n: 64, sets: 100, gen: random(64, 32), opt: WithMaxBatches(3)},
		{n: 64, sets: 100, gen: random(64, 32), opt: WithMode(power.Stateless)},
		{n: 64, sets: 60, gen: budgetSet, budget: 2},
	} {
		tr := topology.MustNew(shape.n)
		rng := rand.New(rand.NewSource(int64(i + 1)))
		opts := []Option{WithExactBudget(shape.budget)}
		if shape.opt != nil {
			opts = append(opts, shape.opt)
		}
		for j := 0; j < shape.sets; j++ {
			s := shape.gen(rng)
			p, err := Schedule(tr, s, opts...)
			if err != nil {
				t.Fatalf("N=%d set %v: %v", shape.n, s.Comms, err)
			}
			fmt.Fprintf(h, "%d %d %d %s %d %d %d %d %d %t\n%+v\n%v\n%s",
				p.Rounds, p.Width, p.Bound, p.Strategy, p.Batches, p.BatchRounds,
				p.ResidualComms, p.ResidualRounds, p.FirstFitRounds, p.Exhausted,
				p.Report, p.Schedule.Set.Comms, p.Schedule.String())
			if shape.budget > 0 {
				right, leftMirrored := comm.Decompose(s)
				for _, half := range []*comm.Set{right, leftMirrored} {
					if _, err := general.Exact(tr, half, shape.budget); errors.Is(err, general.ErrBudget) {
						exhausted++
					}
				}
			}
		}
	}
	if exhausted == 0 {
		t.Error("no half exhausted the exact budget; the incumbent path went unhashed")
	}
	t.Logf("%d halves exhausted the exact budget", exhausted)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != planDigest {
		t.Errorf("plan digest %s, want %s: some plan changed", got, planDigest)
	}
}
