package padr

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"cst/internal/comm"
	"cst/internal/fault"
	"cst/internal/topology"
)

// deltaDigest is the bit-identity surface of a run: everything Apply
// promises to reproduce exactly. UpWords/UpBytes are excluded by contract
// (Apply re-floats only dirty words — that's the savings), as are the power
// report (crossbars carry state across runs by design) and Schedule.Set
// order (swap-remove).
type deltaDigest struct {
	rounds     [][]comm.Comm
	initial    string
	width      int
	nrounds    int
	downWords  int
	downBytes  int
	activeDown int
	maxStored  int
}

func deltaDigestOf(t testing.TB, r *Result) deltaDigest {
	t.Helper()
	// Deep-copy the rounds: they alias the engine's comm arena, which the
	// next run on the same engine overwrites.
	rounds := make([][]comm.Comm, len(r.Schedule.Rounds))
	for i, rd := range r.Schedule.Rounds {
		rounds[i] = append([]comm.Comm(nil), rd...)
	}
	var initial string
	for _, st := range r.InitialStored {
		initial += st.String() + ";"
	}
	return deltaDigest{
		rounds:     rounds,
		initial:    initial,
		width:      r.Width,
		nrounds:    r.Rounds,
		downWords:  r.DownWords,
		downBytes:  r.DownBytes,
		activeDown: r.ActiveDownWords,
		maxStored:  r.MaxStoredBytes,
	}
}

// genDelta derives a random valid mutation of cur: up to 3 removes of
// existing communications and up to 3 rejection-sampled adds that keep the
// set oriented well-nested. Returns the delta and the mutated mirror.
func genDelta(rng *rand.Rand, n int, cur []comm.Comm) (Delta, []comm.Comm) {
	next := append([]comm.Comm(nil), cur...)
	var d Delta
	for j, r := 0, rng.Intn(4); j < r && len(next) > 0; j++ {
		i := rng.Intn(len(next))
		d.Remove = append(d.Remove, next[i])
		next = append(next[:i], next[i+1:]...)
	}
	for j, a := 0, rng.Intn(4); j < a; j++ {
		for attempt := 0; attempt < 100; attempt++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src >= dst {
				continue
			}
			cand := comm.Comm{Src: src, Dst: dst}
			trial := &comm.Set{N: n, Comms: append(append([]comm.Comm(nil), next...), cand)}
			if trial.Validate() != nil || !trial.IsWellNested() {
				continue
			}
			d.Add = append(d.Add, cand)
			next = append(next, cand)
			break
		}
	}
	return d, next
}

// scratchDigest runs a fresh engine on the given communications and
// returns its digest — the ground truth Apply must reproduce bit for bit.
func scratchDigest(t testing.TB, tr *topology.Tree, n int, comms []comm.Comm, opts ...Option) deltaDigest {
	t.Helper()
	s := &comm.Set{N: n, Comms: append([]comm.Comm(nil), comms...)}
	eng, err := New(tr, s, opts...)
	if err != nil {
		t.Fatalf("scratch New: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("scratch Run: %v", err)
	}
	return deltaDigestOf(t, res)
}

// TestDeltaDifferential is the differential suite required by the issue:
// 500 seeded mutation streams, each a chain of Apply calls whose every
// result must be bit-identical to a from-scratch run on the mutated set.
// A second warm engine follows the same stream through ApplyRounds to pin
// the light path's round counts.
func TestDeltaDifferential(t *testing.T) {
	for seed := 0; seed < 500; seed++ {
		init, dels, sets := differentialStream(t, seed)
		n := init.N
		var opts []Option
		if seed%7 == 0 {
			opts = append(opts, WithSelection(Conservative))
		}
		tr, err := topology.New(n)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(tr, init, opts...)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		light, err := New(tr, init, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatalf("seed %d: initial Run: %v", seed, err)
		}
		if _, err := light.RunRounds(); err != nil {
			t.Fatalf("seed %d: initial RunRounds: %v", seed, err)
		}
		for step, d := range dels {
			res, err := eng.Apply(d)
			if err != nil {
				t.Fatalf("seed %d step %d: Apply(%+v): %v", seed, step, d, err)
			}
			if !eng.Ready() {
				t.Fatalf("seed %d step %d: engine not Ready after successful Apply", seed, step)
			}
			got := deltaDigestOf(t, res)
			want := scratchDigest(t, tr, n, sets[step], opts...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: delta run diverged from scratch\n got: %+v\nwant: %+v", seed, step, got, want)
			}
			rounds, err := light.ApplyRounds(d)
			if err != nil {
				t.Fatalf("seed %d step %d: ApplyRounds: %v", seed, step, err)
			}
			if rounds != want.nrounds {
				t.Fatalf("seed %d step %d: ApplyRounds=%d, scratch=%d", seed, step, rounds, want.nrounds)
			}
		}
	}
}

// TestDeltaEmptyAndClearAll covers the two boundary deltas: the empty
// delta re-runs the same set, and a delta removing every communication
// yields a legal zero-round schedule — both bit-identical to scratch.
func TestDeltaEmptyAndClearAll(t *testing.T) {
	n := 16
	tr, err := topology.New(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := comm.NestedChain(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(tr, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Apply(Delta{})
	if err != nil {
		t.Fatalf("empty delta: %v", err)
	}
	want := scratchDigest(t, tr, n, s.Comms)
	if got := deltaDigestOf(t, res); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty delta diverged:\n got: %+v\nwant: %+v", got, want)
	}
	res, err = eng.Apply(Delta{Remove: append([]comm.Comm(nil), s.Comms...)})
	if err != nil {
		t.Fatalf("clear-all delta: %v", err)
	}
	if res.Rounds != 0 || res.Width != 0 || eng.Set().Len() != 0 {
		t.Fatalf("clear-all: rounds=%d width=%d len=%d, want all zero", res.Rounds, res.Width, eng.Set().Len())
	}
	// And the set can be repopulated incrementally from empty.
	res, err = eng.Apply(Delta{Add: []comm.Comm{{Src: 0, Dst: 3}, {Src: 1, Dst: 2}}})
	if err != nil {
		t.Fatalf("repopulate delta: %v", err)
	}
	want = scratchDigest(t, tr, n, []comm.Comm{{Src: 0, Dst: 3}, {Src: 1, Dst: 2}})
	if got := deltaDigestOf(t, res); !reflect.DeepEqual(got, want) {
		t.Fatalf("repopulate diverged:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestDeltaNotReady pins the readiness contract: no completed run, no
// Apply — and Reset clears readiness until the next completed run.
func TestDeltaNotReady(t *testing.T) {
	n := 8
	tr, err := topology.New(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := comm.DisjointPairs(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(tr, s)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Ready() {
		t.Fatal("fresh engine reports Ready before any run")
	}
	if _, err := eng.Apply(Delta{}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Apply before run: err=%v, want ErrNotReady", err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !eng.Ready() {
		t.Fatal("engine not Ready after successful Run")
	}
	if err := eng.Reset(s); err != nil {
		t.Fatal(err)
	}
	if eng.Ready() {
		t.Fatal("Reset engine still reports Ready")
	}
	if _, err := eng.ApplyRounds(Delta{}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("ApplyRounds after Reset: err=%v, want ErrNotReady", err)
	}
}

// TestDeltaInvalidRejected pins the transactional contract: every invalid
// delta — including one whose valid prefix has already been applied — is
// rejected with ErrDelta, rolls back completely, and leaves the engine
// Ready with the old set producing bit-identical schedules.
func TestDeltaInvalidRejected(t *testing.T) {
	n := 16
	tr, err := topology.New(n)
	if err != nil {
		t.Fatal(err)
	}
	base := []comm.Comm{{Src: 0, Dst: 7}, {Src: 1, Dst: 6}, {Src: 8, Dst: 9}}
	eng, err := New(tr, &comm.Set{N: n, Comms: append([]comm.Comm(nil), base...)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	bad := []Delta{
		{Remove: []comm.Comm{{Src: 2, Dst: 3}}},                                     // not in set
		{Add: []comm.Comm{{Src: 0, Dst: 10}}},                                       // src busy
		{Add: []comm.Comm{{Src: 2, Dst: 6}}},                                        // dst busy
		{Add: []comm.Comm{{Src: 10, Dst: 4}}},                                       // left oriented
		{Add: []comm.Comm{{Src: 3, Dst: 3}}},                                        // self loop
		{Add: []comm.Comm{{Src: -1, Dst: 3}}},                                       // out of range
		{Add: []comm.Comm{{Src: 2, Dst: 20}}},                                       // out of range
		{Add: []comm.Comm{{Src: 5, Dst: 12}}},                                       // crosses 1->6 and 8->9
		{Remove: []comm.Comm{{Src: 8, Dst: 9}}, Add: []comm.Comm{{Src: 9, Dst: 9}}}, // valid prefix, bad add
		{Remove: []comm.Comm{{Src: 0, Dst: 7}, {Src: 0, Dst: 7}}},                   // double remove
	}
	for i, d := range bad {
		_, err := eng.Apply(d)
		if !errors.Is(err, ErrDelta) {
			t.Fatalf("bad delta %d (%+v): err=%v, want ErrDelta", i, d, err)
		}
		if !eng.Ready() {
			t.Fatalf("bad delta %d: engine lost readiness on a rejected delta", i)
		}
		if eng.Set().Len() != len(base) {
			t.Fatalf("bad delta %d: set len %d after rollback, want %d", i, eng.Set().Len(), len(base))
		}
	}
	// The rolled-back engine still schedules the original set exactly.
	res, err := eng.Apply(Delta{})
	if err != nil {
		t.Fatalf("Apply after rejections: %v", err)
	}
	want := scratchDigest(t, tr, n, base)
	if got := deltaDigestOf(t, res); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-rollback run diverged:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestDeltaChaosFallback injects a Phase-1 word loss into the Apply run
// (run index 1; the initial run is clean) and verifies the documented
// fallback protocol: Apply dies typed, the engine is no longer Ready,
// further deltas are refused, and Reset + a from-scratch run on the full
// mutated set recovers cleanly.
func TestDeltaChaosFallback(t *testing.T) {
	n := 16
	tr, err := topology.New(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := comm.DisjointPairs(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New([]fault.Fault{{Kind: fault.DropWord, Node: tr.Leaf(0), Run: 1, Round: fault.Phase1}})
	eng, err := New(tr, s, WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("initial run under armed injector: %v", err)
	}
	// Mutate PE 0's pair so the dirty path reads leaf 0's word — where the
	// fault waits.
	d := Delta{Remove: []comm.Comm{s.Comms[0]}, Add: []comm.Comm{{Src: 0, Dst: 2}}}
	if s.Comms[0].Src != 0 {
		t.Fatalf("workload changed shape: first comm %s", s.Comms[0])
	}
	_, err = eng.Apply(d)
	if !errors.Is(err, fault.ErrWordLost) {
		t.Fatalf("faulted Apply: err=%v, want ErrWordLost", err)
	}
	if eng.Ready() {
		t.Fatal("engine still Ready after a faulted Apply")
	}
	if _, err := eng.Apply(Delta{}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Apply after fault: err=%v, want ErrNotReady", err)
	}
	// Fallback: from-scratch run on the full mutated set (the caller's
	// canonical copy — the engine's arena is not trustworthy here).
	full := &comm.Set{N: n, Comms: append([]comm.Comm{{Src: 0, Dst: 2}}, s.Comms[1:]...)}
	if err := eng.Reset(full); err != nil {
		t.Fatalf("fallback Reset: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("fallback Run: %v", err)
	}
	if !eng.Ready() {
		t.Fatal("engine not Ready after fallback run")
	}
	want := scratchDigest(t, tr, n, full.Comms, WithFaults(fault.New(nil)))
	if got := deltaDigestOf(t, res); !reflect.DeepEqual(got.rounds, want.rounds) || got.width != want.width {
		t.Fatalf("fallback run diverged from scratch:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestDeltaChaosSweep sweeps injected faults over many (node, round)
// coordinates of the Apply run. Whatever the outcome — a typed failure or
// an undisturbed success — the engine must either recover via the fallback
// protocol or have produced the exact scratch schedule.
func TestDeltaChaosSweep(t *testing.T) {
	n := 16
	tr, err := topology.New(n)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []fault.Kind{fault.DropWord, fault.CorruptWord, fault.FreezeSwitch}
	rounds := []int{fault.Phase1, 0}
	for node := 1; node < 2*n; node++ {
		for _, k := range kinds {
			for _, fr := range rounds {
				if k == fault.FreezeSwitch && (fr == fault.Phase1 || node >= n) {
					continue // freeze is a Phase 2 switch fault
				}
				s, err := comm.DisjointPairs(n, 4)
				if err != nil {
					t.Fatal(err)
				}
				inj := fault.New([]fault.Fault{{Kind: k, Node: topology.Node(node), Run: 1, Round: fr}})
				eng, err := New(tr, s, WithFaults(inj))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					t.Fatalf("node %d %v: initial run: %v", node, k, err)
				}
				d := Delta{Remove: []comm.Comm{s.Comms[0]}, Add: []comm.Comm{{Src: 0, Dst: 2}}}
				full := append([]comm.Comm{{Src: 0, Dst: 2}}, s.Comms[1:]...)
				res, err := eng.Apply(d)
				want := scratchDigest(t, tr, n, full)
				switch {
				case err != nil:
					if eng.Ready() {
						t.Fatalf("node %d %v round %d: Ready after failed Apply", node, k, fr)
					}
					if err := eng.Reset(&comm.Set{N: n, Comms: full}); err != nil {
						t.Fatalf("node %d %v: fallback Reset: %v", node, k, err)
					}
					rres, err := eng.Run()
					if err != nil {
						t.Fatalf("node %d %v: fallback Run: %v", node, k, err)
					}
					if got := deltaDigestOf(t, rres); !reflect.DeepEqual(got.rounds, want.rounds) {
						t.Fatalf("node %d %v: fallback schedule diverged", node, k)
					}
				case !inj.Fired():
					if got := deltaDigestOf(t, res); !reflect.DeepEqual(got.rounds, want.rounds) || got.width != want.width {
						t.Fatalf("node %d %v round %d: clean Apply diverged from scratch", node, k, fr)
					}
				}
			}
		}
	}
}

// TestDeltaApplyRoundsAllocFree pins the warm-path contract: ApplyRounds
// on a warm engine allocates nothing when the set does not outgrow its
// arenas — the property the online delta sessions and the wire serving
// path depend on.
func TestDeltaApplyRoundsAllocFree(t *testing.T) {
	n := 32
	tr, err := topology.New(n)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]comm.Comm, 0, n/4)
	for i := 0; i < n/4; i++ {
		comms = append(comms, comm.Comm{Src: 4 * i, Dst: 4*i + 1})
	}
	eng, err := New(tr, &comm.Set{N: n, Comms: comms})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunRounds(); err != nil {
		t.Fatal(err)
	}
	// Alternate slot 0 between its two disjoint variants; warm up once so
	// the dirty list and histogram reach steady-state capacity.
	d1 := Delta{Remove: []comm.Comm{{Src: 0, Dst: 1}}, Add: []comm.Comm{{Src: 2, Dst: 3}}}
	d2 := Delta{Remove: []comm.Comm{{Src: 2, Dst: 3}}, Add: []comm.Comm{{Src: 0, Dst: 1}}}
	if _, err := eng.ApplyRounds(d1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyRounds(d2); err != nil {
		t.Fatal(err)
	}
	flip := false
	allocs := testing.AllocsPerRun(20, func() {
		d := d1
		if flip {
			d = d2
		}
		flip = !flip
		if _, err := eng.ApplyRounds(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ApplyRounds allocated %.1f times per run on a warm engine, want 0", allocs)
	}
}

// deltaBenchState builds the N=1024, 90%-overlap workload the delta
// benchmarks and the lab's delta sweep share: `active` four-PE slots
// spread evenly over the PE line, each holding one in-slot communication,
// with 1−overlap of the slots rotating to a different variant every batch.
// The set is sparse (64 comms over 1024 PEs) — the regime the incremental
// hypothesis targets, where a from-scratch prepare pays O(N) while both
// the delta prepare and the pruned Phase 2 scale with the active
// communications.
type deltaBenchState struct {
	tr    *topology.Tree
	sets  []*comm.Set // full set per phase, for the scratch engine
	dels  []Delta     // delta from phase i to i+1 (cyclic)
	start *comm.Set
}

func buildDeltaBench(b testing.TB, n, active int, overlap float64, phases int, seed int64) *deltaBenchState {
	b.Helper()
	tr, err := topology.New(n)
	if err != nil {
		b.Fatal(err)
	}
	slots := n / 4
	if active > slots {
		b.Fatalf("active=%d slots with only %d available", active, slots)
	}
	step := slots / active
	variants := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}, {1, 3}}
	cur := make([]int, active) // variant index per active slot
	mut := int(float64(active)*(1-overlap) + 0.5)
	if mut < 1 {
		mut = 1
	}
	base := func(i int) int { return 4 * i * step }
	setOf := func() *comm.Set {
		s := &comm.Set{N: n}
		for i := 0; i < active; i++ {
			v := variants[cur[i]]
			s.Comms = append(s.Comms, comm.Comm{Src: base(i) + v[0], Dst: base(i) + v[1]})
		}
		return s
	}
	st := &deltaBenchState{tr: tr, start: setOf()}
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < phases; p++ {
		var d Delta
		// Distinct slots per phase: removes run before adds, so mutating
		// the same slot twice in one delta would remove a not-yet-added
		// variant.
		for _, i := range rng.Perm(active)[:mut] {
			old := variants[cur[i]]
			cur[i] = (cur[i] + 1 + rng.Intn(len(variants)-1)) % len(variants)
			next := variants[cur[i]]
			d.Remove = append(d.Remove, comm.Comm{Src: base(i) + old[0], Dst: base(i) + old[1]})
			d.Add = append(d.Add, comm.Comm{Src: base(i) + next[0], Dst: base(i) + next[1]})
		}
		st.dels = append(st.dels, d)
		st.sets = append(st.sets, setOf())
	}
	return st
}

// BenchmarkDeltaApply measures the incremental path at N=1024 and 90% set
// overlap; BenchmarkDeltaScratch is the Reset+RunRounds baseline on the
// same mutation stream. The lab's delta sweep (cstlab delta) gates the
// same ratio at <= 0.5 (Apply at least 2x faster).
func BenchmarkDeltaApply(b *testing.B) {
	st := buildDeltaBench(b, 1024, 64, 0.9, 16, 42)
	eng, err := New(st.tr, st.start)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.RunRounds(); err != nil {
		b.Fatal(err)
	}
	// One warm lap so every phase's arena growth happens outside the timer.
	for _, d := range st.dels {
		if _, err := eng.ApplyRounds(d); err != nil {
			b.Fatal(err)
		}
	}
	// Close the cycle: the last phase's set differs from start, so rebuild.
	if err := eng.Reset(st.start); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.RunRounds(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := st.dels[i%len(st.dels)]
		if i%len(st.dels) == 0 && i > 0 {
			// Re-anchor the cycle without timing the rebuild.
			b.StopTimer()
			if err := eng.Reset(st.start); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.RunRounds(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := eng.ApplyRounds(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaScratch(b *testing.B) {
	st := buildDeltaBench(b, 1024, 64, 0.9, 16, 42)
	eng, err := New(st.tr, st.start)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.RunRounds(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := st.sets[i%len(st.sets)]
		if err := eng.Reset(s); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RunRounds(); err != nil {
			b.Fatal(err)
		}
	}
}
