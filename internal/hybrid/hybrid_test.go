package hybrid

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"cst/internal/audit"
	"cst/internal/comm"
	"cst/internal/general"
	"cst/internal/obs"
	"cst/internal/padr"
	"cst/internal/power"
	"cst/internal/topology"
)

// ffComposite is FirstFit on each decomposition half, phases concatenated:
// a valid schedule of the set, so an optimal plan never exceeds it.
func ffComposite(t *testing.T, tr *topology.Tree, s *comm.Set) int {
	t.Helper()
	right, leftMirrored := comm.Decompose(s)
	total := 0
	for _, half := range []*comm.Set{right, leftMirrored} {
		if half.Len() == 0 {
			continue
		}
		ff, err := general.FirstFit(tr, half)
		if err != nil {
			t.Fatal(err)
		}
		total += ff.NumRounds()
	}
	return total
}

// jointFirstFit is a test-local first-fit of the whole set: communications
// in source order, descending when none is rightward, each into the first
// round whose directed links it finds free. Plan.FirstFitRounds must equal
// its round count.
func jointFirstFit(t *testing.T, tr *topology.Tree, s *comm.Set) int {
	t.Helper()
	order := s.Sorted()
	if !slices.ContainsFunc(order, comm.Comm.RightOriented) {
		slices.Reverse(order)
	}
	var rounds []map[topology.Edge]bool
	for _, c := range order {
		path, err := tr.PathEdges(c.Src, c.Dst)
		if err != nil {
			t.Fatal(err)
		}
		r := 0
		for ; r < len(rounds); r++ {
			free := true
			for _, e := range path {
				free = free && !rounds[r][e]
			}
			if free {
				break
			}
		}
		if r == len(rounds) {
			rounds = append(rounds, map[topology.Edge]bool{})
		}
		for _, e := range path {
			rounds[r][e] = true
		}
	}
	return len(rounds)
}

// A one-orientation well-nested set, right oriented or mirrored, plans in
// exactly its width, bound included, and padr is the oracle in both
// billing modes: every round holds the communications padr's round holds,
// mirrored for a left-oriented set, and the bill equals padr's meter in
// total and on the hottest switch. The sets are a fixed one at N=16 and
// seeded random ones at N = 16 to 1,024.
func TestScheduleWellNestedUsesCircuitWidth(t *testing.T) {
	sets := []*comm.Set{comm.MustParse("((()))(())......")}
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{16, 64, 256, 1024} {
		for i := 0; i < 10; i++ {
			s, err := comm.RandomWellNested(rng, n, 1+rng.Intn(n/2))
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, s)
		}
	}
	bySrc := func(a, b comm.Comm) int { return cmp.Compare(a.Src, b.Src) }
	for _, right := range sets {
		tr := topology.MustNew(right.N)
		for _, mode := range []power.Mode{power.Stateful, power.Stateless} {
			eng, err := padr.New(tr, right, padr.WithMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*comm.Set{right, right.Mirror()} {
				plan, err := Schedule(tr, s, WithMode(mode))
				if err != nil {
					t.Fatal(err)
				}
				if w := res.Width; plan.Width != w || plan.Rounds != w || plan.Bound != w {
					t.Fatalf("%s set %v: width %d, rounds %d, bound %d; padr width %d",
						mode, s.Comms, plan.Width, plan.Rounds, plan.Bound, w)
				}
				for r, round := range res.Schedule.Rounds {
					want := slices.Clone(round)
					if s != right {
						for i, c := range want {
							want[i] = comm.Comm{Src: s.N - 1 - c.Src, Dst: s.N - 1 - c.Dst}
						}
					}
					got := slices.Clone(plan.Schedule.Rounds[r])
					slices.SortFunc(want, bySrc)
					slices.SortFunc(got, bySrc)
					if !slices.Equal(got, want) {
						t.Fatalf("%s set %v: round %d holds %v, padr's %v", mode, s.Comms, r, got, want)
					}
				}
				if got, want := plan.Report.TotalUnits(), res.Report.TotalUnits(); got != want || plan.Report.MaxUnits() != res.Report.MaxUnits() {
					t.Fatalf("%s set %v: billed %d units (hottest switch %d), padr %d (%d)",
						mode, s.Comms, got, plan.Report.MaxUnits(), want, res.Report.MaxUnits())
				}
			}
		}
	}
}

// One round holds both orientations wherever their links are disjoint:
// 0→8 and 12→4 on N=64 share no directed link, so the width-1 set plans in
// one round.
func TestMixedOrientationsShareARound(t *testing.T) {
	tr := topology.MustNew(64)
	s := comm.NewSet(64, comm.Comm{Src: 0, Dst: 8}, comm.Comm{Src: 12, Dst: 4})
	plan, err := Schedule(tr, s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Width != 1 || plan.Rounds != 1 || plan.Bound != 1 {
		t.Fatalf("{0→8, 12→4}: width %d, rounds %d, bound %d; want 1, 1, 1", plan.Width, plan.Rounds, plan.Bound)
	}
	if plan.Strategy != StrategyColoring || plan.Batches != 0 || plan.ResidualComms != 2 {
		t.Fatalf("strategy=%s batches=%d residual=%d", plan.Strategy, plan.Batches, plan.ResidualComms)
	}
}

// Pairwise-crossing sets with alternating orientations plan in their width:
// the two orientations use opposite link directions, so they share rounds.
func TestCrossingPairsPlanInWidth(t *testing.T) {
	for _, n := range []int{8, 32, 128} {
		tr := topology.MustNew(n)
		for m := 1; 2*m <= n; m *= 2 {
			s, err := comm.CrossingPairs(n, m)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Schedule(tr, s)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Rounds != plan.Width {
				t.Errorf("CrossingPairs(%d, %d): %d rounds, width %d", n, m, plan.Rounds, plan.Width)
			}
		}
	}
}

// The plan quality of servebench's probe: its 1,024 sets drawn the same way
// plan in about their width, and the power bill per communication stays
// where the joint coloring puts it.
func TestProbePlanQuality(t *testing.T) {
	tr := topology.MustNew(64)
	rng := rand.New(rand.NewSource(42*7919 - 17))
	ratio, units, comms := 0.0, 0, 0
	const sets = 1024
	for i := 0; i < sets; i++ {
		s, err := comm.RandomTwoSided(rng, 64, 16)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Schedule(tr, s)
		if err != nil {
			t.Fatal(err)
		}
		ratio += float64(plan.Rounds) / float64(plan.Width)
		units += plan.Report.TotalUnits()
		comms += s.Len()
	}
	ratio /= sets
	perComm := float64(units) / float64(comms)
	t.Logf("mean rounds/width %.4f, units per comm %.4f", ratio, perComm)
	if ratio > 1.01 {
		t.Errorf("mean rounds/width %.4f, want <= 1.01", ratio)
	}
	if perComm > 7.25 {
		t.Errorf("units per comm %.4f, want <= 7.25", perComm)
	}
}

func TestScheduleBitReversal(t *testing.T) {
	tr := topology.MustNew(32)
	s, err := comm.BitReversal(32)
	if err != nil {
		t.Fatal(err)
	}
	if s.IsWellNested() {
		t.Fatal("bit reversal should cross")
	}
	plan, err := Schedule(tr, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Schedule.Verify(tr); err != nil {
		t.Fatal(err)
	}
	if plan.Rounds > plan.FirstFitRounds {
		t.Fatalf("%d rounds exceed FirstFit %d", plan.Rounds, plan.FirstFitRounds)
	}
	if plan.Rounds > plan.Bound {
		t.Fatalf("%d rounds exceed declared bound %d", plan.Rounds, plan.Bound)
	}
	if plan.Rounds < plan.Width {
		t.Fatalf("%d rounds below the width lower bound %d", plan.Rounds, plan.Width)
	}
	if plan.Report == nil || plan.Report.TotalUnits() == 0 {
		t.Fatal("composite power bill missing")
	}
}

func TestScheduleMixedOrientations(t *testing.T) {
	tr := topology.MustNew(16)
	// Two right comms, two left comms, pairwise crossing within each
	// orientation half on purpose.
	s := comm.NewSet(16,
		comm.Comm{Src: 0, Dst: 5}, comm.Comm{Src: 3, Dst: 8},
		comm.Comm{Src: 12, Dst: 6}, comm.Comm{Src: 14, Dst: 9})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	plan, err := Schedule(tr, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Schedule.Verify(tr); err != nil {
		t.Fatal(err)
	}
	if plan.Rounds > plan.FirstFitRounds {
		t.Fatalf("%d rounds exceed FirstFit %d", plan.Rounds, plan.FirstFitRounds)
	}
	// Both orientations must appear in the composite.
	lefts, rights := 0, 0
	for _, round := range plan.Schedule.Rounds {
		for _, c := range round {
			if c.RightOriented() {
				rights++
			} else {
				lefts++
			}
		}
	}
	if lefts != 2 || rights != 2 {
		t.Fatalf("composite schedules %d right / %d left comms, want 2/2", rights, lefts)
	}
}

func TestScheduleEmptySet(t *testing.T) {
	tr := topology.MustNew(8)
	plan, err := Schedule(tr, comm.NewSet(8))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rounds != 0 || plan.Bound != 0 {
		t.Fatalf("empty set: rounds=%d bound=%d", plan.Rounds, plan.Bound)
	}
}

// An invalid set is refused with an error wrapping ErrInvalidSet, which the
// serving planner maps to 400.
func TestScheduleRejectsInvalid(t *testing.T) {
	tr := topology.MustNew(8)
	if _, err := Schedule(tr, comm.NewSet(8, comm.Comm{Src: 1, Dst: 1})); !errors.Is(err, ErrInvalidSet) {
		t.Fatalf("self loop: %v, want ErrInvalidSet", err)
	}
	if _, err := Schedule(tr, comm.NewSet(16, comm.Comm{Src: 0, Dst: 9})); !errors.Is(err, ErrInvalidSet) {
		t.Fatalf("leaf-count mismatch: %v, want ErrInvalidSet", err)
	}
}

// The differential suite: on 500 seeded arbitrary two-sided sets, the
// hybrid plan verifies, respects the width lower bound, never exceeds its
// declared bound, reports the joint first-fit's round count, and — unless
// Exact ran out of budget — never exceeds FirstFit on the decomposition
// halves, a valid coloring the optimum cannot exceed.
func TestDifferentialHybridVsFirstFit(t *testing.T) {
	tr := topology.MustNew(32)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		s, err := comm.RandomTwoSided(rng, 32, 1+rng.Intn(16))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Schedule(tr, s)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, s.Comms, err)
		}
		if err := plan.Schedule.Verify(tr); err != nil {
			t.Fatalf("trial %d (%v): %v", trial, s.Comms, err)
		}
		if ff := ffComposite(t, tr, s); plan.Rounds > ff && !plan.Exhausted {
			t.Fatalf("trial %d (%v): hybrid %d rounds > FirstFit on the halves %d",
				trial, s.Comms, plan.Rounds, ff)
		}
		if ff := jointFirstFit(t, tr, s); plan.FirstFitRounds != ff || plan.Bound != ff {
			t.Fatalf("trial %d (%v): first-fit comparator %d, bound %d, joint first-fit %d",
				trial, s.Comms, plan.FirstFitRounds, plan.Bound, ff)
		}
		if plan.Rounds > plan.Bound {
			t.Fatalf("trial %d: %d rounds > declared bound %d", trial, plan.Rounds, plan.Bound)
		}
		if plan.Rounds < plan.Width {
			t.Fatalf("trial %d: %d rounds < width %d", trial, plan.Rounds, plan.Width)
		}
	}
}

// The composite trace must replay cleanly through the auditor: the bound
// monitor sees Rounds <= Bound, the independent ledger re-bills the same
// power the plan reports (stateful mode holds circuits, so every traced
// config change is a genuine one), and no violation fires.
func TestAuditBillsComposite(t *testing.T) {
	tr := topology.MustNew(32)
	aud := audit.New(audit.Config{})
	tracer := obs.NewTracer(nil, 64)
	tracer.SetSink(aud.Observe)
	s, err := comm.BitReversal(32)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Schedule(tr, s, WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	runs := aud.Runs()
	if len(runs) != 1 {
		t.Fatalf("audited %d runs, want 1", len(runs))
	}
	r := runs[0]
	if r.Engine != Engine {
		t.Fatalf("audited engine %q", r.Engine)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("violations on a clean composite: %v", r.Violations)
	}
	if r.Rounds != plan.Rounds {
		t.Fatalf("audit saw %d rounds, plan has %d", r.Rounds, plan.Rounds)
	}
	if r.Width != plan.Bound {
		t.Fatalf("audit bound %d, plan bound %d", r.Width, plan.Bound)
	}
	if got, want := r.Ledger.TotalUnits(), plan.Report.TotalUnits(); got != want {
		t.Fatalf("audit re-billed %d units, plan reports %d", got, want)
	}
}

// A trace claiming more rounds than its declared bound must raise the
// hybrid bound violation.
func TestAuditFlagsBoundOverrun(t *testing.T) {
	aud := audit.New(audit.Config{})
	aud.Observe(obs.Event{Type: "run.start", Engine: Engine, N: 2, Mode: "stateful"})
	for i := 0; i < 3; i++ {
		aud.Observe(obs.Event{Type: "round.start", Engine: Engine, Round: i})
		aud.Observe(obs.Event{Type: "round.done", Engine: Engine, Round: i, N: 1})
	}
	aud.Observe(obs.Event{Type: "run.done", Engine: Engine, Width: 2, N: 3})
	runs := aud.Runs()
	if len(runs) != 1 {
		t.Fatalf("audited %d runs", len(runs))
	}
	found := false
	for _, v := range runs[0].Violations {
		if v.Kind == audit.KindHybridBound {
			found = true
		}
	}
	if !found {
		t.Fatalf("bound overrun not flagged; violations: %v", runs[0].Violations)
	}
}

func TestStatelessModeBillsEveryRound(t *testing.T) {
	tr := topology.MustNew(16)
	s, err := comm.BitReversal(16)
	if err != nil {
		t.Fatal(err)
	}
	stateful, err := Schedule(tr, s, WithMode(power.Stateful))
	if err != nil {
		t.Fatal(err)
	}
	stateless, err := Schedule(tr, s, WithMode(power.Stateless))
	if err != nil {
		t.Fatal(err)
	}
	if stateless.Report.TotalUnits() < stateful.Report.TotalUnits() {
		t.Fatalf("stateless bill %d below stateful %d",
			stateless.Report.TotalUnits(), stateful.Report.TotalUnits())
	}
}
