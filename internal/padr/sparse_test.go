package padr

import (
	"math/rand"
	"slices"
	"testing"

	"cst/internal/comm"
	"cst/internal/ctrl"
	"cst/internal/fault"
	"cst/internal/topology"
)

// checkSparse checks the sparse invariant on an engine whose last run or
// apply succeeded with no injector armed: the live and post-Phase-1 words
// and matched totals are non-zero only on the root paths of the set's
// endpoints, the PE entries only on the endpoints, and the edge loads only
// on edges below those paths; the load table, its histogram and the width
// are what the set's own WidthInto gives.
func checkSparse(t testing.TB, e *Engine) {
	t.Helper()
	if !e.sparse {
		t.Fatal("a successful run left the arenas not sparse")
	}
	tr := e.tree
	onPath := make([]bool, tr.NodeCount()) // leaves and switches on an endpoint's root path
	endpoint := make([]bool, e.set.N)
	for _, c := range e.set.Comms {
		for _, pe := range [2]int{c.Src, c.Dst} {
			endpoint[pe] = true
			for u := tr.Leaf(pe); u >= tr.Root(); u = tr.Parent(u) {
				onPath[u] = true
			}
		}
	}
	for u := 1; u < tr.Leaves(); u++ {
		if onPath[u] {
			continue
		}
		if e.stored[u] != (ctrl.Stored{}) || e.p1Stored[u] != (ctrl.Stored{}) || e.matchedSub[u] != 0 || e.p1MatchedSub[u] != 0 {
			t.Fatalf("switch %d is off the set's root paths but holds live %v/%d, post-Phase-1 %v/%d",
				u, e.stored[u], e.matchedSub[u], e.p1Stored[u], e.p1MatchedSub[u])
		}
	}
	for pe := range endpoint {
		if endpoint[pe] {
			continue
		}
		if e.leafRole[pe] != (ctrl.Up{}) || e.leafDone[pe] || e.dstOf[pe] != -1 || e.commPos[pe] != -1 || e.ends[pe>>6]>>(pe&63)&1 != 0 {
			t.Fatalf("PE %d is no endpoint but holds role %v, done %v, dst %d, pos %d, bit %d",
				pe, e.leafRole[pe], e.leafDone[pe], e.dstOf[pe], e.commPos[pe], e.ends[pe>>6]>>(pe&63)&1)
		}
	}
	for i, v := range e.loads {
		if child := topology.Node(i%tr.EdgeCount() + 2); v != 0 && !onPath[child] {
			t.Fatalf("edge %d (child %d) is off the set's root paths but carries load %d", i, child, v)
		}
	}
	want := make([]int, tr.DirectedEdgeCount())
	width, err := e.set.WidthInto(tr, want)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(e.loads, want) || e.curWidth != width {
		t.Fatalf("live loads (width %d) differ from the set's (width %d)", e.curWidth, width)
	}
	hist := make([]int, len(e.loadHist))
	for _, v := range want {
		hist[v]++
	}
	if !slices.Equal(e.loadHist, hist) {
		t.Fatalf("load histogram %v, want %v", e.loadHist, hist)
	}
}

// pairBurstRuns draws batches of size pairs on pes PEs the way the serving
// benchmark's pair workloads do (two seeded connections, interleaved) and
// splits each batch into runs by online.Serve's rule: the majority
// orientation first, taking every request that crosses no taken one and
// shares no PE with one. A left-oriented run comes back mirrored, with
// reflect set.
func pairBurstRuns(seed int64, pes, size, batches int) (runs []*comm.Set, reflect []bool) {
	var rngs [2]*rand.Rand
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*7919 + int64(c)*104729 + 1))
	}
	for b := 0; b < batches; b++ {
		pend := make([]comm.Comm, size)
		for i := range pend {
			rng := rngs[i%len(rngs)]
			src, dst := rng.Intn(pes), rng.Intn(pes-1)
			if dst >= src {
				dst++
			}
			pend[i] = comm.Comm{Src: src, Dst: dst}
		}
		for len(pend) > 0 {
			right := 0
			for _, c := range pend {
				if c.RightOriented() {
					right++
				}
			}
			wantRight := right*2 >= len(pend)
			var run, rest []comm.Comm
			used := make([]bool, pes)
		next:
			for _, c := range pend {
				if c.RightOriented() != wantRight || used[c.Src] || used[c.Dst] {
					rest = append(rest, c)
					continue
				}
				for _, r := range run {
					if c.Crosses(r) {
						rest = append(rest, c)
						continue next
					}
				}
				used[c.Src], used[c.Dst] = true, true
				run = append(run, c)
			}
			s := &comm.Set{N: pes, Comms: run}
			if !wantRight {
				s = s.Mirror()
			}
			runs, reflect = append(runs, s), append(reflect, !wantRight)
			pend = rest
		}
	}
	return runs, reflect
}

// rootPathUnion counts the switches on the root paths of s's endpoints.
func rootPathUnion(tr *topology.Tree, s *comm.Set) int {
	seen := map[topology.Node]bool{}
	for _, c := range s.Comms {
		for _, pe := range [2]int{c.Src, c.Dst} {
			for u := tr.Parent(tr.Leaf(pe)); u >= tr.Root(); u = tr.Parent(u) {
				seen[u] = true
			}
		}
	}
	return len(seen)
}

// TestPhase1CountProbe counts Phase 1 work per from-scratch run, with no
// clock. On a pair-burst-shaped stream (seed 1, 2,000 batches of 32 pairs
// on N=64) a pooled engine matches exactly the switches on each run's
// root-path union, sends 2N−2 = 126 up words and leaves its arenas sparse;
// with an injector armed, and on the run after, it matches all 63
// switches. A new engine matches every switch on its first run, and {0→3}
// on a Reset N=16 engine matches the five switches above PEs 0 and 3:
// nodes 8, 9, 4, 2 and 1.
func TestPhase1CountProbe(t *testing.T) {
	const pes = 64
	tr := topology.MustNew(pes)
	runs, reflect := pairBurstRuns(1, pes, 32, 2000)
	eng, err := New(tr, comm.NewSet(pes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunRounds(); err != nil {
		t.Fatal(err)
	}
	if eng.matched != tr.Switches() {
		t.Fatalf("a new engine matched %d switches, want all %d", eng.matched, tr.Switches())
	}
	armed := fault.New(nil)
	visits, pairs, sparse := 0, 0, 0
	for i, s := range runs {
		var inj *fault.Injector
		if i%100 == 99 {
			inj = armed
		}
		if err := eng.Reset(s, WithReflection(reflect[i]), WithFaults(inj)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if _, err := eng.RunRounds(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		// An armed injector may corrupt any word, so its run leaves the
		// arenas unknown and the next run matches every switch too.
		want := rootPathUnion(tr, s)
		full := inj != nil || i%100 == 0 && i > 0
		if full {
			want = tr.Switches()
		} else {
			checkSparse(t, eng)
		}
		if eng.matched != want || eng.upWords != tr.EdgeCount() || eng.upBytes != tr.EdgeCount()*ctrl.UpWordBytes {
			t.Fatalf("run %d (%d pairs, injector %v): matched %d switches, sent %d up words (%d bytes); want %d, %d",
				i, s.Len(), inj != nil, eng.matched, eng.upWords, eng.upBytes, want, tr.EdgeCount())
		}
		if !full {
			visits += eng.matched
			pairs += s.Len()
			sparse++
		}
	}
	n := float64(sparse)
	t.Logf("%d runs of %.2f pairs: Phase 1 matched %.1f of %d switches per run", len(runs), float64(pairs)/n, float64(visits)/n, tr.Switches())

	small := topology.MustNew(16)
	eng, err = New(small, comm.NewSet(16, comm.Comm{Src: 0, Dst: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunRounds(); err != nil {
		t.Fatal(err)
	}
	if eng.matched != 15 {
		t.Fatalf("a new engine matched %d switches, want 15", eng.matched)
	}
	if err := eng.Reset(comm.NewSet(16, comm.Comm{Src: 0, Dst: 3})); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunRounds(); err != nil {
		t.Fatal(err)
	}
	if eng.matched != 5 || eng.upWords != 30 {
		t.Fatalf("{0→3} at N=16 matched %d switches and sent %d up words, want 5 and 30", eng.matched, eng.upWords)
	}
	for _, u := range []topology.Node{8, 9, 4, 2, 1} {
		if eng.dirtyMark[u] != eng.dirtyEpoch {
			t.Errorf("switch %d is off the matched set", u)
		}
	}
}
