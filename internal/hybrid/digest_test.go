package hybrid

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"cst/internal/comm"
	"cst/internal/power"
	"cst/internal/topology"
)

// planDigest is the SHA-256 of every plan TestPlanDigest draws. A change to
// any field of any of those plans changes it, so a change to the planner
// that must keep its plans (a faster graph build, a cheaper replay) keeps
// this constant.
const planDigest = "ae8e7d11c651c27ac131cb4ce4cf44ddf75e1429d5885227fe4385f8e8c304c1"

// hardBlock is a width-2 mixed set on 16 PEs whose source-order first-fit
// needs 3 rounds, so the planner runs Exact on it, and whose Welsh–Powell
// coloring misses the width too, so the branch-and-bound search starts and
// a tiny node budget runs out. Its optimum is 2 rounds.
var hardBlock = []comm.Comm{
	{Src: 10, Dst: 15}, {Src: 14, Dst: 1}, {Src: 12, Dst: 9}, {Src: 6, Dst: 2},
	{Src: 8, Dst: 11}, {Src: 3, Dst: 4}, {Src: 0, Dst: 13}, {Src: 7, Dst: 5},
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
// RandomTwoSided sets at N=16, 64 and 256 (default options, stateless
// billing), over random well-nested sets and their mirror images (the
// paper's inputs), and over sets built to exhaust a tiny exact budget, so
// the ErrBudget incumbent path is hashed too.
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
	wellNested := func(rng *rand.Rand) *comm.Set {
		s, err := comm.RandomWellNested(rng, 64, 1+rng.Intn(32))
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			return s.Mirror()
		}
		return s
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
		{n: 64, sets: 100, gen: wellNested},
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
			fmt.Fprintf(h, "%d %d %d %s %d %d %d %t\n%+v\n%v\n%s",
				p.Rounds, p.Width, p.Bound, p.Strategy, p.Batches,
				p.ResidualComms, p.FirstFitRounds, p.Exhausted,
				p.Report, p.Schedule.Set.Comms, p.Schedule.String())
			if shape.budget > 0 && p.Exhausted {
				exhausted++
			}
		}
	}
	if exhausted == 0 {
		t.Error("no plan exhausted the exact budget; the incumbent path went unhashed")
	}
	t.Logf("%d plans exhausted the exact budget", exhausted)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != planDigest {
		t.Errorf("plan digest %s, want %s: some plan changed", got, planDigest)
	}
}
