package padr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cst/internal/comm"
	"cst/internal/ctrl"
	"cst/internal/power"
	"cst/internal/topology"
	"cst/internal/xbar"
)

func mustEngine(t *testing.T, expr string, opts ...Option) *Engine {
	t.Helper()
	s, err := comm.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(topology.MustNew(s.N), s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// floatUp runs a new engine's Phase 1 over every switch, as its first run
// does before Phase 2.
func floatUp(t *testing.T, e *Engine) {
	t.Helper()
	e.markSet(true)
	if err := e.phase1(); err != nil {
		t.Fatal(err)
	}
}

func mustRun(t *testing.T, expr string, opts ...Option) *Result {
	t.Helper()
	res, err := mustEngine(t, expr, opts...).Run()
	if err != nil {
		t.Fatalf("Run(%q): %v", expr, err)
	}
	return res
}

func TestNewRejectsBadInputs(t *testing.T) {
	s := comm.MustParse("(())")
	if _, err := New(topology.MustNew(8), s); err == nil {
		t.Error("tree/set size mismatch: want error")
	}
	crossing := comm.NewSet(4, comm.Comm{Src: 0, Dst: 2}, comm.Comm{Src: 1, Dst: 3})
	if _, err := New(topology.MustNew(4), crossing); err == nil {
		t.Error("crossing set: want error")
	}
	leftward := comm.NewSet(4, comm.Comm{Src: 2, Dst: 0})
	if _, err := New(topology.MustNew(4), leftward); err == nil {
		t.Error("left-oriented set: want error")
	}
	invalid := comm.NewSet(4, comm.Comm{Src: 0, Dst: 9})
	if _, err := New(topology.MustNew(4), invalid); err == nil {
		t.Error("invalid set: want error")
	}
}

func TestEngineSingleUse(t *testing.T) {
	e := mustEngine(t, "(())")
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run must fail")
	}
}

func TestEmptySet(t *testing.T) {
	res := mustRun(t, "....")
	if res.Rounds != 0 || res.Width != 0 {
		t.Fatalf("empty set: rounds=%d width=%d", res.Rounds, res.Width)
	}
	if res.Report.TotalUnits() != 0 {
		t.Fatalf("empty set must spend no power, got %d", res.Report.TotalUnits())
	}
}

func TestSingleCommunication(t *testing.T) {
	res := mustRun(t, "(.)")
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	if got := res.Schedule.Rounds[0]; len(got) != 1 || got[0] != (comm.Comm{Src: 0, Dst: 2}) {
		t.Fatalf("round 0 = %v", got)
	}
	if err := res.Schedule.VerifyOptimal(topology.MustNew(4)); err != nil {
		t.Fatal(err)
	}
}

// Figure 4(a): Phase 1 must classify communications at each switch into the
// five types. Hand-checked against the 8-PE set ((.)(.)) with an outer pair.
func TestFigure4Classification(t *testing.T) {
	e := mustEngine(t, "((.)(.))")
	floatUp(t, e)
	cases := map[topology.Node]ctrl.Stored{
		2: {M: 1, SL: 1},  // matches (1,3); source 0 passes up
		3: {M: 1, DR: 1},  // matches (4,6); destination 7 fed from above
		1: {M: 1},         // matches (0,7) at the root
		4: {SL: 1, SR: 1}, // PEs 0,1 both source upward
		5: {DR: 1},        // PE 3 receives from above
		6: {SL: 1},        // PE 4 sources upward
		7: {DL: 1, DR: 1}, // PEs 6,7 both receive from above
	}
	for n, want := range cases {
		if got := e.stored[n]; got != want {
			t.Errorf("switch %d stored %v, want %v", n, got, want)
		}
	}
	// Upward words after matching (Step 1.3).
	if up := e.stored[2].UpWord(); up != (ctrl.Up{S: 1, D: 0}) {
		t.Errorf("node 2 sends %v, want [1,0]", up)
	}
	if up := e.stored[3].UpWord(); up != (ctrl.Up{S: 0, D: 1}) {
		t.Errorf("node 3 sends %v, want [0,1]", up)
	}
	if up := e.stored[1].UpWord(); up != (ctrl.Up{}) {
		t.Errorf("root sends %v, want [0,0]", up)
	}
	// Leaf words (Step 1.1).
	wantRole := []ctrl.Up{{S: 1}, {S: 1}, {}, {D: 1}, {S: 1}, {}, {D: 1}, {D: 1}}
	for pe, want := range wantRole {
		if e.leafRole[pe] != want {
			t.Errorf("PE %d role %v, want %v", pe, e.leafRole[pe], want)
		}
	}
}

// The CONFIGURE cases of Fig. 5: a switch with a matched pair receiving
// [null,null] connects l->r and emits [s,null]/[d,null] with the stored
// unmatched counts as selectors.
func TestConfigureNullNull(t *testing.T) {
	e := mustEngine(t, "((.)(.))")
	floatUp(t, e)
	left, right, err := e.configure(2, ctrl.Down{Use: ctrl.UseNone})
	if err != nil {
		t.Fatal(err)
	}
	if left != (ctrl.Down{Use: ctrl.UseS, Xs: 1}) {
		t.Errorf("left word %v, want [s,null] xs=1", left)
	}
	if right != (ctrl.Down{Use: ctrl.UseD, Xd: 0}) {
		t.Errorf("right word %v, want [d,null] xd=0", right)
	}
	if st := e.stored[2]; st.M != 0 || st.SL != 1 {
		t.Errorf("stored after configure: %v", st)
	}
	if cfg := e.switches[2].Config().String(); cfg != "[l->r]" {
		t.Errorf("config %v, want [l->r]", cfg)
	}
}

func TestConfigureUseSFromLeft(t *testing.T) {
	e := mustEngine(t, "((.)(.))")
	floatUp(t, e)
	// Ask node 2 for its 0th pending source: that is PE 0 (the unmatched
	// one), in the left subtree.
	left, right, err := e.configure(2, ctrl.Down{Use: ctrl.UseS, Xs: 0})
	if err != nil {
		t.Fatal(err)
	}
	if left != (ctrl.Down{Use: ctrl.UseS, Xs: 0}) {
		t.Errorf("left %v", left)
	}
	if right != (ctrl.Down{Use: ctrl.UseNone}) {
		t.Errorf("right %v", right)
	}
	if st := e.stored[2]; st.SL != 0 || st.M != 1 {
		t.Errorf("stored %v: SL must drain, M must survive", st)
	}
	if cfg := e.switches[2].Config().Driver(3); cfg != 1 { // P output driven by L
		t.Errorf("p_o driver = %v", cfg)
	}
}

func TestConfigureUseSFromRightSchedulesMatch(t *testing.T) {
	// Build a set where a switch passes a right-subtree source upward and
	// can simultaneously schedule its own matched pair. N=8: (0,2) is
	// matched at node 2 (span [0,4)); (3,6) passes its source up from node
	// 2's right subtree (right up-passes are always disjoint from the
	// matched pairs — a containing span would cross).
	s := comm.NewSet(8, comm.Comm{Src: 0, Dst: 2}, comm.Comm{Src: 3, Dst: 6})
	if !s.IsWellNested() {
		t.Fatal("test set must be well nested")
	}
	e, err := New(topology.MustNew(8), s)
	if err != nil {
		t.Fatal(err)
	}
	floatUp(t, e)
	// Node 2: left child has source 0, right child has destination 2 and
	// source 3. M = min(S_L=1, D_R=1) = 1, SR = 1.
	if st := e.stored[2]; st.M != 1 || st.SR != 1 || st.SL != 0 {
		t.Fatalf("node 2 stored %v", st)
	}
	// Parent demands pending source 0: SL=0 so it comes from the right
	// subtree; l_i/r_o are free so the matched pair rides along.
	left, right, err := e.configure(2, ctrl.Down{Use: ctrl.UseS, Xs: 0})
	if err != nil {
		t.Fatal(err)
	}
	if left != (ctrl.Down{Use: ctrl.UseS, Xs: 0}) {
		t.Errorf("left %v, want [s,null] xs=0", left)
	}
	if right != (ctrl.Down{Use: ctrl.UseSD, Xs: 0, Xd: 0}) {
		t.Errorf("right %v, want [s,d] xs=0 xd=0", right)
	}
	if st := e.stored[2]; st.M != 0 || st.SR != 0 {
		t.Errorf("stored %v: both demands must drain", st)
	}
	cfg := e.switches[2].Config().String()
	if cfg != "[l->r r->p]" {
		t.Errorf("config %s, want [l->r r->p]", cfg)
	}
}

func TestConfigureSelectorOutOfRange(t *testing.T) {
	e := mustEngine(t, "((.)(.))")
	floatUp(t, e)
	if _, _, err := e.configure(2, ctrl.Down{Use: ctrl.UseS, Xs: 5}); err == nil {
		t.Error("xs out of range: want error")
	}
	if _, _, err := e.configure(2, ctrl.Down{Use: ctrl.UseD, Xd: 5}); err == nil {
		t.Error("xd out of range: want error")
	}
	if _, _, err := e.configure(2, ctrl.Down{Use: ctrl.Use(9)}); err == nil {
		t.Error("bad use: want error")
	}
}

func TestNestedChainOptimalRounds(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 16} {
		s, err := comm.NestedChain(64, w)
		if err != nil {
			t.Fatal(err)
		}
		tr := topology.MustNew(64)
		e, err := New(tr, s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if res.Rounds != w {
			t.Fatalf("w=%d: rounds=%d", w, res.Rounds)
		}
		if err := res.Schedule.VerifyOptimal(tr); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		// Theorem 8: the chain is the adversarial workload (every pair
		// matched at the root, all paths overlapping) yet every switch
		// stays within a constant budget.
		if got := res.Report.MaxUnits(); got > 6 {
			t.Errorf("w=%d: max units per switch = %d, want O(1) (<=6)", w, got)
		}
		if got := res.Report.MaxAlternations(); got > 4 {
			t.Errorf("w=%d: max alternations = %d", w, got)
		}
	}
}

// The paper's headline contrast: under stateless (reconfigure-every-round)
// operation the hottest switch pays Θ(w); under PADR it pays O(1).
func TestStatelessAblation(t *testing.T) {
	s, err := comm.NestedChain(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	tr := topology.MustNew(64)

	run := func(mode power.Mode) *Result {
		e, err := New(tr, s.Clone(), WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	stateful := run(power.Stateful)
	stateless := run(power.Stateless)
	if stateful.Rounds != stateless.Rounds {
		t.Fatalf("mode must not change the schedule: %d vs %d rounds", stateful.Rounds, stateless.Rounds)
	}
	if stateful.Report.MaxUnits() > 6 {
		t.Errorf("stateful max units = %d, want O(1)", stateful.Report.MaxUnits())
	}
	if stateless.Report.MaxUnits() < 16 {
		t.Errorf("stateless max units = %d, want >= w = 16", stateless.Report.MaxUnits())
	}
}

func TestObserverCallbacks(t *testing.T) {
	var rounds, words, configs, dones int
	res, err := mustEngine(t, "(())", WithObserver(Observer{
		RoundStart: func(int) { rounds++ },
		WordSent:   func(_, _ topology.Node, _ ctrl.Down) { words++ },
		Configured: func(_ topology.Node, _ xbar.Config) { configs++ },
		RoundDone:  func(_ int, performed []comm.Comm) { dones += len(performed) },
	})).Run()
	if err != nil {
		t.Fatal(err)
	}
	if configs == 0 {
		t.Error("Configured never fired")
	}
	if rounds != res.Rounds {
		t.Errorf("RoundStart fired %d times for %d rounds", rounds, res.Rounds)
	}
	// Every round sends one word to every non-root node: 2N-2 = 6 words.
	if want := res.Rounds * 6; words != want {
		t.Errorf("WordSent fired %d times, want %d", words, want)
	}
	if dones != 2 {
		t.Errorf("RoundDone reported %d comms, want 2", dones)
	}
}

func TestWordAndByteCounts(t *testing.T) {
	res := mustRun(t, "(())")
	n := 4
	if want := 2*n - 2; res.UpWords != want {
		t.Errorf("UpWords = %d, want %d", res.UpWords, want)
	}
	if want := res.Rounds * (2*n - 2); res.DownWords != want {
		t.Errorf("DownWords = %d, want %d", res.DownWords, want)
	}
	if res.UpBytes != res.UpWords*ctrl.UpWordBytes {
		t.Errorf("UpBytes = %d", res.UpBytes)
	}
	if res.DownBytes != res.DownWords*ctrl.DownWordBytes {
		t.Errorf("DownBytes = %d", res.DownBytes)
	}
	if res.MaxStoredBytes != ctrl.StoredWordBytes {
		t.Errorf("MaxStoredBytes = %d", res.MaxStoredBytes)
	}
	if res.ActiveDownWords <= 0 || res.ActiveDownWords > res.DownWords {
		t.Errorf("ActiveDownWords = %d out of range", res.ActiveDownWords)
	}
}

// End-to-end property: every random well-nested set schedules in exactly
// `width` rounds with a verifier-approved schedule and O(1) per-switch
// power.
func TestRandomSetsProperty(t *testing.T) {
	trees := map[int]*topology.Tree{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (2 + rng.Intn(5)) // 4..64
		m := rng.Intn(n/2 + 1)
		s, err := comm.RandomWellNested(rng, n, m)
		if err != nil {
			return false
		}
		tr := trees[n]
		if tr == nil {
			tr = topology.MustNew(n)
			trees[n] = tr
		}
		e, err := New(tr, s)
		if err != nil {
			return false
		}
		res, err := e.Run()
		if err != nil {
			t.Logf("seed %d set %s: %v", seed, s, err)
			return false
		}
		if err := res.Schedule.VerifyOptimal(tr); err != nil {
			t.Logf("seed %d set %s: %v", seed, s, err)
			return false
		}
		if res.Report.MaxUnits() > 6 || res.Report.MaxAlternations() > 4 {
			t.Logf("seed %d set %s: power blowup %s", seed, s, res.Report.Summary())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// Larger adversarial shapes at a fixed seed, for regression visibility.
func TestWorkloadZoo(t *testing.T) {
	tr := topology.MustNew(128)
	zoo := map[string]*comm.Set{}
	add := func(name string, s *comm.Set, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		zoo[name] = s
	}
	rng := rand.New(rand.NewSource(12345))
	chain, err := comm.NestedChain(128, 32)
	add("chain32", chain, err)
	compact, err := comm.CompactChain(128, 32)
	add("compact32", compact, err)
	forest, err := comm.SiblingForest(128, 8, 5)
	add("forest8x5", forest, err)
	stair, err := comm.Staircase(128, 40)
	add("staircase40", stair, err)
	pairs, err := comm.DisjointPairs(128, 64)
	add("pairs64", pairs, err)
	rand1, err := comm.RandomWellNested(rng, 128, 60)
	add("random60", rand1, err)

	for name, s := range zoo {
		e, err := New(tr, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Schedule.VerifyOptimal(tr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if res.Report.MaxUnits() > 6 {
			t.Errorf("%s: max units %d", name, res.Report.MaxUnits())
		}
	}
}

func TestScheduleOutermostFirstAtRoot(t *testing.T) {
	// With a pure chain every communication is matched at the root and the
	// algorithm must schedule outermost first: (0,15), then (1,14), ...
	s, err := comm.NestedChain(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(topology.MustNew(16), s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := comm.Comm{Src: i, Dst: 15 - i}
		if len(res.Schedule.Rounds[i]) != 1 || res.Schedule.Rounds[i][0] != want {
			t.Fatalf("round %d = %v, want [%v]", i, res.Schedule.Rounds[i], want)
		}
	}
}

func TestSummaryOutput(t *testing.T) {
	res := mustRun(t, "(())")
	if !strings.Contains(res.Report.Summary(), "padr/stateful") {
		t.Errorf("Summary = %q", res.Report.Summary())
	}
}
