package lemma

import (
	"math/rand"
	"testing"

	"cst/internal/comm"
	"cst/internal/ctrl"
	"cst/internal/padr"
	"cst/internal/topology"
)

func TestFlips(t *testing.T) {
	seq := []ctrl.Use{ctrl.UseNone, ctrl.UseS, ctrl.UseS, ctrl.UseNone, ctrl.UseNone}
	if f := Flips(seq, ctrl.Use.HasS); f != 2 {
		t.Fatalf("flips = %d, want 2", f)
	}
	if f := Flips(nil, ctrl.Use.HasS); f != 0 {
		t.Fatalf("empty flips = %d", f)
	}
	// [s,d] counts for both projections.
	both := []ctrl.Use{ctrl.UseSD, ctrl.UseD}
	if Flips(both, ctrl.Use.HasS) != 1 || Flips(both, ctrl.Use.HasD) != 0 {
		t.Fatal("projection of [s,d] wrong")
	}
}

// classify names the observed source-component pattern of a sequence:
// "idle" (never S), "Q1" (null… s… null…), "Q2" (s… null… s…), or
// "violation". It is the oracle TestPatternsObserved reads the monitor
// with.
func classify(seq []ctrl.Use, project func(ctrl.Use) bool) string {
	if len(seq) == 0 {
		return "idle"
	}
	flips := Flips(seq, project)
	first := project(seq[0])
	switch {
	case flips == 0 && !first:
		return "idle"
	case flips <= MaxFlips && !first:
		return "Q1"
	case flips <= MaxFlips && first:
		return "Q2"
	default:
		return "violation"
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		seq  []ctrl.Use
		want string
	}{
		{nil, "idle"},
		{[]ctrl.Use{ctrl.UseNone, ctrl.UseNone}, "idle"},
		{[]ctrl.Use{ctrl.UseNone, ctrl.UseS, ctrl.UseNone}, "Q1"},
		{[]ctrl.Use{ctrl.UseS, ctrl.UseNone, ctrl.UseS}, "Q2"},
		{[]ctrl.Use{ctrl.UseS}, "Q2"},
		{[]ctrl.Use{ctrl.UseNone, ctrl.UseS, ctrl.UseNone, ctrl.UseS}, "violation"},
	}
	for _, c := range cases {
		if got := classify(c.seq, ctrl.Use.HasS); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.seq, got, c.want)
		}
	}
}

func runWithMonitor(t *testing.T, s *comm.Set, sel padr.Selection) *Monitor {
	t.Helper()
	tr := topology.MustNew(s.N)
	var mon Monitor
	e, err := padr.New(tr, s, padr.WithSelection(sel), padr.WithObserver(mon.Observer()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("set %s: %v", s, err)
	}
	if err := res.Schedule.Verify(tr); err != nil {
		t.Fatalf("set %s: %v", s, err)
	}
	return &mon
}

// On the paper's chain workloads both selection rules satisfy Lemma 7
// exactly, and every node receives one word per round.
func TestLemma7OnChains(t *testing.T) {
	for _, w := range []int{1, 4, 16, 32} {
		for _, sel := range []padr.Selection{padr.Greedy, padr.Conservative} {
			s, err := comm.NestedChain(128, w)
			if err != nil {
				t.Fatal(err)
			}
			mon := runWithMonitor(t, s, sel)
			if err := mon.Verify(); err != nil {
				t.Fatalf("w=%d sel=%s: %v", w, sel, err)
			}
			if mon.Nodes() != 2*128-2 {
				t.Fatalf("w=%d: %d nodes recorded", w, mon.Nodes())
			}
			for node, seq := range mon.seq {
				if len(seq) != w {
					t.Fatalf("w=%d sel=%s: node %d received %d words", w, sel, node, len(seq))
				}
			}
		}
	}
}

// The reproduction's central finding (see DESIGN.md §6 and EXPERIMENTS.md):
// the Conservative rule satisfies Lemma 7's strict Q1/Q2 shape on *every*
// input, while the literal Fig. 5 pseudocode (Greedy) violates it on some
// random well-nested sets — though its flip count stays a small constant,
// far below the width, so Theorem 8's O(1)-in-w conclusion survives.
func TestLemma7ConservativeAlways(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	greedyViolations := 0
	for trial := 0; trial < 150; trial++ {
		n := 1 << (2 + rng.Intn(5))
		s, err := comm.RandomWellNested(rng, n, rng.Intn(n/2+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := runWithMonitor(t, s.Clone(), padr.Conservative).Verify(); err != nil {
			t.Fatalf("conservative violated Lemma 7 on %s: %v", s, err)
		}
		gmon := runWithMonitor(t, s, padr.Greedy)
		if err := gmon.Verify(); err != nil {
			greedyViolations++
			// The violation must remain mild: flips bounded by a small
			// constant, far below any width-dependent growth.
			for node, seq := range gmon.seq {
				for _, proj := range []func(ctrl.Use) bool{ctrl.Use.HasS, ctrl.Use.HasD} {
					if f := Flips(seq, proj); f > 8 {
						t.Fatalf("greedy flips blow up at node %d on %s: %d", node, s, f)
					}
				}
			}
		}
	}
	if greedyViolations == 0 {
		t.Log("note: no greedy Lemma 7 violation in this sample (they are input-dependent)")
	} else {
		t.Logf("greedy violated strict Lemma 7 on %d/150 random sets (expected; see EXPERIMENTS.md)", greedyViolations)
	}
}

// The workload zoo satisfies Lemma 7 under both rules.
func TestLemma7Zoo(t *testing.T) {
	zoo := []func() (*comm.Set, error){
		func() (*comm.Set, error) { return comm.SplitChain(64, 16) },
		func() (*comm.Set, error) { return comm.SiblingForest(64, 4, 4) },
		func() (*comm.Set, error) { return comm.Staircase(64, 20) },
		func() (*comm.Set, error) { return comm.CompactChain(64, 16) },
	}
	for i, gen := range zoo {
		for _, sel := range []padr.Selection{padr.Greedy, padr.Conservative} {
			s, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			mon := runWithMonitor(t, s, sel)
			if err := mon.Verify(); err != nil {
				t.Fatalf("zoo %d sel=%s: %v", i, sel, err)
			}
		}
	}
}

// The monitor must actually observe Q1/Q2 shapes, not just idle sequences.
func TestPatternsObserved(t *testing.T) {
	s, err := comm.NestedChain(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	mon := runWithMonitor(t, s, padr.Greedy)
	counts := map[string]int{}
	tr := topology.MustNew(64)
	for node := topology.Node(2); int(node) < 2*64; node++ {
		if !tr.Valid(node) {
			continue
		}
		seq := mon.Sequence(node)
		counts[classify(seq, ctrl.Use.HasS)]++
		counts[classify(seq, ctrl.Use.HasD)]++
	}
	if counts["violation"] != 0 {
		t.Fatalf("violations observed: %v", counts)
	}
	if counts["Q1"]+counts["Q2"] == 0 {
		t.Fatalf("no non-trivial sequences observed: %v", counts)
	}
}
