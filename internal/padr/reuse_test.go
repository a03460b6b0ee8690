package padr

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/fault"
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

// sameAsFresh checks got, a pooled engine's result for s, against a new
// engine's run of s: bit-identical schedule, power report, word counts and
// InitialStored. A new engine matches every switch in Phase 1, so the
// check is independent of the pooled engine's sparse arenas.
func sameAsFresh(t *testing.T, name string, tree *topology.Tree, s *comm.Set, opts []Option, got *Result) {
	t.Helper()
	fe, err := New(tree, s, opts...)
	if err != nil {
		t.Fatalf("%s: fresh New: %v", name, err)
	}
	fresh, err := fe.Run()
	if err != nil {
		t.Fatalf("%s: fresh run: %v", name, err)
	}
	if g, w := digest(got), digest(fresh); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: reused engine diverged from fresh\nreused: %+v\nfresh:  %+v", name, g, w)
	}
	if !reflect.DeepEqual(got.InitialStored, fresh.InitialStored) {
		t.Errorf("%s: InitialStored diverged", name)
	}
	if err := got.Schedule.Verify(tree); err != nil {
		t.Errorf("%s: reused schedule invalid: %v", name, err)
	}
}

// TestResetMatchesFresh pins the reuse contract: sets run through one
// engine via Reset produce bit-identical results — schedules, power
// reports, word counts and InitialStored — to each set run on its own new
// engine, and leave the engine's arenas sparse. Checked for both selection
// rules crossed with both power modes and both orientations, over the
// workload shapes interleaved with small sets (1–4 pairs at N=64, whose
// runs match a fraction of the switches), and then after each event that
// leaves a pooled engine's arenas in another state: a run failed by an
// injector, a rejected Reset, and an Apply that replayed.
func TestResetMatchesFresh(t *testing.T) {
	const n = 64
	tree := topology.MustNew(n)
	rng := rand.New(rand.NewSource(3))
	var sets []*comm.Set
	for _, s := range reuseWorkloads(t, n) {
		sets = append(sets, s)
		for i := 0; i < 3; i++ {
			small, err := comm.RandomWellNested(rng, n, 1+rng.Intn(4))
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, small)
		}
	}

	for _, sel := range []Selection{Greedy, Conservative} {
		for _, mode := range []power.Mode{power.Stateful, power.Stateless} {
			for _, mirrored := range []bool{false, true} {
				opts := []Option{WithSelection(sel), WithMode(mode), WithReflection(mirrored)}
				var eng *Engine
				for i, s := range sets {
					name := fmt.Sprintf("sel=%v mode=%v mirrored=%v set %d", sel, mode, mirrored, i)
					var err error
					if eng == nil {
						eng, err = New(tree, s, opts...)
					} else {
						err = eng.Reset(s, opts...)
					}
					if err != nil {
						t.Fatalf("%s: reset: %v", name, err)
					}
					reused, err := eng.Run()
					if err != nil {
						t.Fatalf("%s: reused run: %v", name, err)
					}
					sameAsFresh(t, name, tree, s, opts, reused)
					checkSparse(t, eng)
				}
			}
		}
	}

	eng, err := New(tree, sets[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	runNext := func(name string, s *comm.Set) {
		t.Helper()
		if err := eng.Reset(s, WithFaults(nil)); err != nil {
			t.Fatalf("%s: reset: %v", name, err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		sameAsFresh(t, name, tree, s, nil, res)
		checkSparse(t, eng)
	}

	// A corrupted up word from a PE that is no endpoint puts a source
	// where the set has none, off every root path of the set.
	small := comm.NewSet(n, comm.Comm{Src: 8, Dst: 11}, comm.Comm{Src: 40, Dst: 47})
	inj := fault.New([]fault.Fault{{Kind: fault.CorruptWord, Node: tree.Leaf(20), Round: fault.Phase1}})
	if err := eng.Reset(small, WithFaults(inj)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil || !inj.Fired() {
		t.Fatalf("corrupted run: err=%v, fired=%v; want a failure", err, inj.Fired())
	}
	runNext("after a failed run", small)
	runNext("small after small", sets[1])

	for _, bad := range []*comm.Set{
		comm.NewSet(n, comm.Comm{Src: 0, Dst: 9}, comm.Comm{Src: 30, Dst: 40}, comm.Comm{Src: 5, Dst: 35}), // crossing
		comm.NewSet(n, comm.Comm{Src: 2, Dst: 9}, comm.Comm{Src: 9, Dst: 12}),                              // shared PE
		comm.NewSet(n, comm.Comm{Src: 4, Dst: 6}, comm.Comm{Src: 20, Dst: 17}),                             // left oriented
		comm.NewSet(n, comm.Comm{Src: 4, Dst: 6}, comm.Comm{Src: 20, Dst: 64}),                             // out of range
		comm.NewSet(n, comm.Comm{Src: 4, Dst: 4}),                                                          // self loop
		comm.NewSet(32, comm.Comm{Src: 0, Dst: 1}),                                                         // wrong N
	} {
		if err := eng.Reset(bad); err == nil {
			t.Fatalf("Reset accepted %s", bad)
		}
		runNext("after a rejected Reset of "+bad.String(), sets[2])
	}

	// Closed subtrees around short pairs replay on the second apply.
	short := comm.NewSet(n, comm.Comm{Src: 0, Dst: 1}, comm.Comm{Src: 4, Dst: 6}, comm.Comm{Src: 8, Dst: 11},
		comm.Comm{Src: 16, Dst: 19}, comm.Comm{Src: 33, Dst: 60})
	runNext("before the applies", short)
	for _, d := range []Delta{
		{Remove: []comm.Comm{{Src: 33, Dst: 60}}, Add: []comm.Comm{{Src: 34, Dst: 58}}},
		{Remove: []comm.Comm{{Src: 34, Dst: 58}}, Add: []comm.Comm{{Src: 33, Dst: 60}}},
	} {
		if _, err := eng.Apply(d); err != nil {
			t.Fatal(err)
		}
		checkSparse(t, eng)
	}
	if eng.counts.replayed == 0 {
		t.Fatal("the second apply replayed nothing")
	}
	runNext("after an apply that replayed", sets[3])
}

// TestResetSurvivesArmFailure pins that a rejected Reset (bad set) leaves
// the engine holding no set, whether it ran before or not: Run, RunRounds
// and Apply refuse, naming the rejected Reset, until a Reset succeeds, and
// the next valid Reset+Run matches a fresh engine.
func TestResetSurvivesArmFailure(t *testing.T) {
	tree := topology.MustNew(16)
	first := comm.NewSet(16, comm.Comm{Src: 0, Dst: 3})
	good := comm.MustParse("((.))((.))......")
	// Crossing set: arm must reject it.
	bad := comm.NewSet(16, comm.Comm{Src: 0, Dst: 5}, comm.Comm{Src: 2, Dst: 8})
	for _, ranBefore := range []bool{false, true} {
		name := fmt.Sprintf("ran before: %t", ranBefore)
		eng, err := New(tree, first)
		if err != nil {
			t.Fatal(err)
		}
		if ranBefore {
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Reset(bad); err == nil {
			t.Fatalf("%s: Reset accepted a crossing set", name)
		}
		for i := 0; i < 2; i++ {
			for call, run := range map[string]func() error{
				"Run":       func() error { _, err := eng.Run(); return err },
				"RunRounds": func() error { _, err := eng.RunRounds(); return err },
				"Apply": func() error {
					_, err := eng.Apply(Delta{Add: []comm.Comm{{Src: 12, Dst: 13}}})
					return err
				},
			} {
				if err := run(); err == nil || !strings.Contains(err.Error(), "the last Reset was rejected") {
					t.Errorf("%s: %s after a rejected Reset: %v, want a refusal naming it", name, call, err)
				}
			}
		}
		if _, err := eng.Apply(Delta{}); !errors.Is(err, ErrNotReady) {
			t.Errorf("%s: Apply after a rejected Reset: %v, want ErrNotReady", name, err)
		}
		if err := eng.Reset(good); err != nil {
			t.Fatalf("%s: Reset after failure: %v", name, err)
		}
		reused, err := eng.Run()
		if err != nil {
			t.Fatalf("%s: run after failed Reset: %v", name, err)
		}
		sameAsFresh(t, name, tree, good, nil, reused)
		checkSparse(t, eng)
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
