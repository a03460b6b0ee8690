package hybrid

import (
	"fmt"
	"math/rand"
	"testing"

	"cst/internal/comm"
	"cst/internal/obs"
	"cst/internal/power"
	"cst/internal/topology"
)

// renderPlan flattens a plan for comparison: every Plan field, the
// report's every switch (units and alternations), the set copy and the
// schedule round by round. A Scheduler's plan must be rendered before its
// next call.
func renderPlan(p *Plan, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%d %d %d %s %d %d %d %t\n%+v\n%v\n%s",
		p.Rounds, p.Width, p.Bound, p.Strategy, p.Batches,
		p.ResidualComms, p.FirstFitRounds, p.Exhausted,
		*p.Report, *p.Schedule.Set, p.Schedule.String())
}

// eventLog records a tracer's events without their timings.
type eventLog []string

func (l *eventLog) tracer() *obs.Tracer {
	tr := obs.NewTracer(nil, 64)
	tr.SetSink(func(e obs.Event) {
		*l = append(*l, fmt.Sprintf("%s %s r%d n%d N%d w%d %s %s",
			e.Type, e.Engine, e.Round, e.Node, e.N, e.Width, e.Config, e.Mode))
	})
	return tr
}

// planCase is one input of a reuse stream.
type planCase struct {
	name   string
	tree   *topology.Tree
	set    *comm.Set
	mode   power.Mode
	budget int // 0 keeps the default
	traced bool
}

// reuseStream draws the inputs TestSchedulerReuseMatchesFresh feeds one
// Scheduler: at N = 4, 16, 64, 256 and 2048, random two-sided sets, the
// paper's inputs in both orientations, bit reversal, hardBlock sets that
// reach Exact (some on a budget they exhaust), and every kind of invalid
// set, in both power modes, traced and untraced, shuffled so that n
// changes mid-stream.
func reuseStream(t *testing.T, rng *rand.Rand) []planCase {
	t.Helper()
	var cases []planCase
	add := func(name string, tr *topology.Tree, s *comm.Set, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, planCase{name: name, tree: tr, set: s,
			mode: power.Mode(rng.Intn(2)), traced: rng.Intn(3) == 0})
	}
	for _, n := range []int{4, 16, 64, 256, 2048} {
		tr := topology.MustNew(n)
		for i := 0; i < 6; i++ {
			s, err := comm.RandomTwoSided(rng, n, 1+rng.Intn(min(n/2, 64)))
			add(fmt.Sprintf("N=%d random %d", n, i), tr, s, err)
		}
		for i := 0; i < 2; i++ {
			s, err := comm.RandomWellNested(rng, n, 1+rng.Intn(min(n/2, 32)))
			add(fmt.Sprintf("N=%d well nested %d", n, i), tr, s, err)
			if err == nil {
				add(fmt.Sprintf("N=%d well nested %d, mirrored", n, i), tr, s.Mirror(), nil)
			}
		}
		s, err := comm.BitReversal(n)
		add(fmt.Sprintf("N=%d bit reversal", n), tr, s, err)
		add(fmt.Sprintf("N=%d empty", n), tr, comm.NewSet(n), nil)
		if n >= 16 {
			hard := &comm.Set{N: n}
			for b := 0; b < min(n/16, 8); b++ {
				for _, c := range hardBlock {
					hard.Comms = append(hard.Comms, comm.Comm{Src: 16*b + c.Src, Dst: 16*b + c.Dst})
				}
			}
			add(fmt.Sprintf("N=%d hard blocks", n), tr, hard, nil)
			cases = append(cases, planCase{name: fmt.Sprintf("N=%d hard blocks, budget 2", n),
				tree: tr, set: hard, budget: 2, traced: true})
		}
		c := func(src, dst int) comm.Comm { return comm.Comm{Src: src, Dst: dst} }
		for _, bad := range []struct {
			name string
			s    *comm.Set
		}{
			{"self loop", comm.NewSet(n, c(0, 1), c(2, 2))},
			{"out of range", comm.NewSet(n, c(0, 1), c(2, n))},
			{"negative", comm.NewSet(n, c(-1, 1))},
			{"shared source", comm.NewSet(n, c(0, 1), c(0, 3))},
			{"shared destination", comm.NewSet(n, c(0, 3), c(2, 3))},
			{"PE in two roles", comm.NewSet(n, c(0, 1), c(1, 2))},
			{"listed twice", comm.NewSet(n, c(0, 3), c(0, 3))},
			{"wrong n", comm.NewSet(2*n, c(0, 1))},
		} {
			add(fmt.Sprintf("N=%d invalid: %s", n, bad.name), tr, bad.s, nil)
		}
	}
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases
}

// One Scheduler planning a long mixed stream gives, plan for plan, what a
// one-shot Schedule gives: the same error, every Plan field, the same
// schedule round for round, every switch's units and alternations, and
// the same traced events, whatever the plans before it left in its
// buffers. The stream runs twice, so every input also follows plans at
// every other n.
func TestSchedulerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	cases := reuseStream(t, rng)
	var sc Scheduler
	exhausted := 0
	for pass := 0; pass < 2; pass++ {
		for _, pc := range cases {
			var freshLog, reusedLog eventLog
			opts := func(l *eventLog) []Option {
				o := []Option{WithMode(pc.mode), WithExactBudget(pc.budget)}
				if pc.traced {
					o = append(o, WithTracer(l.tracer()))
				}
				return o
			}
			fresh, err := Schedule(pc.tree, pc.set, opts(&freshLog)...)
			want := renderPlan(fresh, err)
			if err == nil && fresh.Exhausted {
				exhausted++
			}
			got := renderPlan(sc.Schedule(pc.tree, pc.set, opts(&reusedLog)...))
			if got != want {
				t.Fatalf("pass %d, %s (%v): reused Scheduler\n%s\none-shot Schedule\n%s", pass, pc.name, pc.set.Comms, got, want)
			}
			if fmt.Sprint(reusedLog) != fmt.Sprint(freshLog) {
				t.Fatalf("pass %d, %s: reused Scheduler traced\n%v\none-shot Schedule traced\n%v", pass, pc.name, reusedLog, freshLog)
			}
		}
	}
	if exhausted == 0 {
		t.Error("no plan exhausted its exact budget")
	}
}

// A one-shot Schedule's plan is the caller's: later plans, one-shot or on
// a Scheduler, leave it as it was.
func TestOneShotPlanSurvivesLaterPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := topology.MustNew(64)
	kept := make(map[*Plan]string)
	var sc Scheduler
	for i := 0; i < 50; i++ {
		s, err := comm.RandomTwoSided(rng, 64, 1+rng.Intn(32))
		if err != nil {
			t.Fatal(err)
		}
		p, err := Schedule(tr, s)
		if err != nil {
			t.Fatal(err)
		}
		kept[p] = renderPlan(p, nil)
		if _, err := sc.Schedule(tr, s); err != nil {
			t.Fatal(err)
		}
	}
	for p, want := range kept {
		if got := renderPlan(p, nil); got != want {
			t.Fatalf("a one-shot plan changed after later plans:\nnow\n%s\nwas\n%s", got, want)
		}
	}
}
