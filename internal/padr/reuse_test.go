package padr

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/power"
	"cst/internal/topology"
)

// reuseWorkloads returns a spread of workload shapes: chains (dense nesting),
// split chains (configuration churn), staircases, combs, and random
// well-nested sets — the same families the E1–E16 experiments sweep.
func reuseWorkloads(t *testing.T, n int) []*comm.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	sets := []*comm.Set{}
	add := func(s *comm.Set, err error) {
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s)
	}
	add(comm.NestedChain(n, 6))
	add(comm.SplitChain(n, 6))
	add(comm.Staircase(n, 8))
	add(comm.DisjointPairs(n, 10))
	for i := 0; i < 3; i++ {
		add(comm.RandomWellNested(rng, n, n/4))
	}
	sets = append(sets, comm.NewSet(n)) // empty set
	return sets
}

// runDigest is everything a Result exposes, flattened for comparison.
type runDigest struct {
	rounds                [][]comm.Comm
	report                *power.Report
	upWords, downWords    int
	upBytes, downBytes    int
	activeDown, maxStored int
	widthVal, roundsVal   int
}

func digest(r *Result) runDigest {
	return runDigest{
		rounds:     r.Schedule.Rounds,
		report:     r.Report,
		upWords:    r.UpWords,
		downWords:  r.DownWords,
		upBytes:    r.UpBytes,
		downBytes:  r.DownBytes,
		activeDown: r.ActiveDownWords,
		maxStored:  r.MaxStoredBytes,
		widthVal:   r.Width,
		roundsVal:  r.Rounds,
	}
}

// TestResetMatchesFresh pins the reuse contract: running three sets through
// one engine via Reset produces bit-identical results — schedules, power
// reports, and word counts — to running each through its own fresh engine.
// Checked for both selection rules crossed with both power modes.
func TestResetMatchesFresh(t *testing.T) {
	const n = 64
	tree := topology.MustNew(n)
	sets := reuseWorkloads(t, n)

	for _, sel := range []Selection{Greedy, Conservative} {
		for _, mode := range []power.Mode{power.Stateful, power.Stateless} {
			opts := []Option{WithSelection(sel), WithMode(mode)}
			var eng *Engine
			for i, s := range sets {
				var err error
				if eng == nil {
					eng, err = New(tree, s, opts...)
				} else {
					err = eng.Reset(s, opts...)
				}
				if err != nil {
					t.Fatalf("sel=%v mode=%v set %d: reset: %v", sel, mode, i, err)
				}
				reused, err := eng.Run()
				if err != nil {
					t.Fatalf("sel=%v mode=%v set %d: reused run: %v", sel, mode, i, err)
				}

				fe, err := New(tree, s, opts...)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := fe.Run()
				if err != nil {
					t.Fatalf("sel=%v mode=%v set %d: fresh run: %v", sel, mode, i, err)
				}

				if got, want := digest(reused), digest(fresh); !reflect.DeepEqual(got, want) {
					t.Errorf("sel=%v mode=%v set %d: reused engine diverged from fresh\nreused: %+v\nfresh:  %+v",
						sel, mode, i, got, want)
				}
				if !reflect.DeepEqual(reused.InitialStored, fresh.InitialStored) {
					t.Errorf("sel=%v mode=%v set %d: InitialStored diverged", sel, mode, i)
				}
				if err := reused.Schedule.Verify(tree); err != nil {
					t.Errorf("sel=%v mode=%v set %d: reused schedule invalid: %v", sel, mode, i, err)
				}
			}
		}
	}
}

// TestResetSurvivesArmFailure pins that a rejected Reset (bad set) leaves
// the engine usable: the next valid Reset+Run matches a fresh engine.
func TestResetSurvivesArmFailure(t *testing.T) {
	tree := topology.MustNew(16)
	good := comm.MustParse("((.))((.))......")
	eng, err := New(tree, good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Crossing set: arm must reject it.
	bad := comm.NewSet(16, comm.Comm{Src: 0, Dst: 2}, comm.Comm{Src: 1, Dst: 3})
	if err := eng.Reset(bad); err == nil {
		t.Fatal("Reset accepted a crossing set")
	}
	if err := eng.Reset(good); err != nil {
		t.Fatalf("Reset after failure: %v", err)
	}
	reused, err := eng.Run()
	if err != nil {
		t.Fatalf("run after failed Reset: %v", err)
	}
	fe, _ := New(tree, good)
	fresh, _ := fe.Run()
	if !reflect.DeepEqual(digest(reused), digest(fresh)) {
		t.Error("engine diverged from fresh after a failed Reset")
	}
}

// TestReusedEngineAllocs pins the steady-state allocation count of a
// Reset+Run cycle. The flat-arena engine allocates only the Result, its
// Schedule/Report shells, and the cloned output set — independent of N and
// rounds. The bound is deliberately loose (2x measured) to absorb runtime
// jitter without letting an O(N)- or O(rounds)-allocation regression slip
// through.
func TestReusedEngineAllocs(t *testing.T) {
	tree := topology.MustNew(256)
	s, err := comm.NestedChain(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(tree, s)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := eng.Reset(s); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~13 allocs/op on the reference platform (Result + schedule
	// rows + report + set clone). 32 leaves headroom for runtime jitter
	// while still catching any per-node or per-word allocation creep
	// (which would be hundreds to thousands).
	if allocs > 32 {
		t.Errorf("Reset+Run allocated %.0f times; want <= 32", allocs)
	}
}

// TestWidthIntoAllocs pins that comm.Set.WidthInto with warm scratch is
// allocation-free.
func TestWidthIntoAllocs(t *testing.T) {
	tree := topology.MustNew(256)
	s, err := comm.RandomWellNested(rand.New(rand.NewSource(9)), 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]int, tree.DirectedEdgeCount())
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.WidthInto(tree, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WidthInto allocated %.0f times on warm scratch; want 0", allocs)
	}
}

// RunRounds must agree with Run on the round count and — unlike Run, which
// assembles a Result — allocate nothing on a warm engine. The online
// dispatcher's zero-alloc steady state is built on this.
func TestRunRoundsMatchesRunAllocFree(t *testing.T) {
	tree := topology.MustNew(256)
	s, err := comm.RandomWellNested(rand.New(rand.NewSource(11)), 256, 48)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(tree, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	light, err := New(tree, s)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := light.RunRounds()
	if err != nil {
		t.Fatal(err)
	}
	if rounds != res.Rounds {
		t.Fatalf("RunRounds = %d, Run = %d", rounds, res.Rounds)
	}

	// Warm, then pin: Reset + RunRounds is allocation-free.
	if err := light.Reset(s); err != nil {
		t.Fatal(err)
	}
	if _, err := light.RunRounds(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := light.Reset(s); err != nil {
			t.Fatal(err)
		}
		if _, err := light.RunRounds(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset+RunRounds allocated %.0f times; want 0", allocs)
	}
}

// TestNewCrossbarAllocs pins how New pays for crossbars: it builds them
// only when the caller supplies none, and then as one slab. An engine on
// caller crossbars allocates the same at any N and less than one that
// builds its own, which allocates at most two more (the switch array and
// its node view).
func TestNewCrossbarAllocs(t *testing.T) {
	allocs := func(n int, shared bool) float64 {
		tree := topology.MustNew(n)
		s, err := comm.NestedChain(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		var opts []Option
		if shared {
			opts = append(opts, WithCrossbars(circuit.NewSwitches(tree)))
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := New(tree, s, opts...); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64, true), allocs(1024, true); small != large {
		t.Errorf("New on caller crossbars: %.0f allocations at N=64, %.0f at N=1024; want equal", small, large)
	}
	for _, n := range []int{64, 1024} {
		if own, shared := allocs(n, false), allocs(n, true); own <= shared || own > shared+2 {
			t.Errorf("N=%d: New builds its crossbars in %.0f allocations over the %.0f of caller crossbars; want 1 or 2",
				n, own-shared, shared)
		}
	}
}

// TestResultsSurviveLaterRuns pins that a Result owns its schedule: a
// later Reset+Run, or a later Apply, on the same engine reuses the round
// arena and must not rewrite an earlier result's rounds.
func TestResultsSurviveLaterRuns(t *testing.T) {
	tree := topology.MustNew(16)
	keep := func(r *Result) string { return fmt.Sprint(r.Schedule.Rounds) }

	eng, err := New(tree, comm.NewSet(16, comm.Comm{Src: 0, Dst: 15}, comm.Comm{Src: 1, Dst: 14}))
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := keep(first)
	if err := eng.Reset(comm.NewSet(16, comm.Comm{Src: 2, Dst: 5}, comm.Comm{Src: 8, Dst: 9})); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := keep(first); got != want {
		t.Errorf("Reset+Run rewrote an earlier Run result: %s, want %s", got, want)
	}

	if err := eng.Reset(comm.NewSet(16, comm.Comm{Src: 2, Dst: 5}, comm.Comm{Src: 8, Dst: 9}, comm.Comm{Src: 10, Dst: 13})); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	applied, err := eng.Apply(Delta{Add: []comm.Comm{{Src: 0, Dst: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	want = keep(applied)
	if _, err := eng.Apply(Delta{Remove: []comm.Comm{{Src: 0, Dst: 1}, {Src: 2, Dst: 5}}, Add: []comm.Comm{{Src: 3, Dst: 4}}}); err != nil {
		t.Fatal(err)
	}
	if got := keep(applied); got != want {
		t.Errorf("Apply rewrote an earlier Apply result: %s, want %s", got, want)
	}
}
