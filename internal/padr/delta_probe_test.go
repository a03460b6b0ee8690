package padr

import (
	"testing"

	"cst/internal/comm"
	"cst/internal/topology"
)

// probeStream runs dels on a warm engine through ApplyRounds and, for
// each step, the same mutated set on a from-scratch engine. It returns
// both engines' Phase 2 counts per step: the scratch walk is the walk an
// apply without replay makes, since both start Phase 2 from the same
// stored words and matchedSub totals.
func probeStream(t *testing.T, tr *topology.Tree, start *comm.Set, dels []Delta, sets []*comm.Set) (apply, scratch []phase2Counts) {
	t.Helper()
	eng, err := New(tr, start.Clone())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(tr, start.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunRounds(); err != nil {
		t.Fatal(err)
	}
	for i, d := range dels {
		rounds, err := eng.ApplyRounds(d)
		if err != nil {
			t.Fatalf("step %d: ApplyRounds: %v", i, err)
		}
		if err := ref.Reset(sets[i].Clone()); err != nil {
			t.Fatal(err)
		}
		want, err := ref.RunRounds()
		if err != nil {
			t.Fatal(err)
		}
		if rounds != want {
			t.Fatalf("step %d: ApplyRounds = %d rounds, scratch %d", i, rounds, want)
		}
		apply = append(apply, eng.counts)
		scratch = append(scratch, ref.counts)
	}
	return apply, scratch
}

func meanCounts(cs []phase2Counts) (switches, leaves, pruned, replayed float64) {
	for _, c := range cs {
		switches += float64(c.switches)
		leaves += float64(c.leaves)
		pruned += float64(c.pruned)
		replayed += float64(c.replayed)
	}
	n := float64(len(cs))
	return switches / n, leaves / n, pruned / n, replayed / n
}

// TestDeltaCountProbe counts Phase 2 work per apply, with no clock.
//
//   - On the delta-churn shape (N=1024, 64 occupied 4-leaf slots, 90%
//     overlap; seeds 1 and 42, 200 applies), every apply after the first
//     replays at least one subtree and walks at most 120 nodes, where a
//     walk without replay visits about 570. The first apply after a
//     from-scratch run has no records yet and walks in full. The lab
//     sweep's other overlaps, 75% and 50%, are logged.
//   - On a stream of long nested communications, which leaves no clean
//     closed subtree, no apply replays and every apply walks exactly what
//     the from-scratch run walks.
//   - On TestDeltaDifferential's streams the test logs how many applies
//     replay.
func TestDeltaCountProbe(t *testing.T) {
	for _, c := range []struct {
		overlap float64
		seed    int64
	}{{0.9, 1}, {0.9, 42}, {0.75, 42}, {0.5, 42}} {
		st := buildDeltaBench(t, 1024, 64, c.overlap, 200, c.seed)
		apply, scratch := probeStream(t, st.tr, st.start, st.dels, st.sets)
		if apply[0] != scratch[0] {
			t.Errorf("seed %d: first apply counts %+v, want the full walk %+v", c.seed, apply[0], scratch[0])
		}
		for i, n := range apply[1:] {
			if walked := n.switches + n.leaves; c.overlap == 0.9 && (walked > 120 || n.replayed == 0) {
				t.Errorf("seed %d apply %d: walked %d nodes and replayed %d subtrees, want <= 120 and > 0",
					c.seed, i+1, walked, n.replayed)
			}
		}
		as, al, ap, ar := meanCounts(apply[1:])
		ss, sl, sp, _ := meanCounts(scratch[1:])
		t.Logf("overlap %.2f seed %d, applies 2-200: switch visits %.1f (walk %.1f), leaf visits %.1f (walk %.1f), pruned %.1f (walk %.1f), replayed %.1f",
			c.overlap, c.seed, as, ss, al, sl, ap, sp, ar)
	}

	// Nested chain (i, n-1-i): every subtree below the root holds only
	// sources or only destinations, so none is closed. The innermost
	// communication rotates through variants that keep the chain nested.
	const n, depth = 64, 8
	tr := topology.MustNew(n)
	chain := func(inner comm.Comm) *comm.Set {
		s := &comm.Set{N: n}
		for i := 0; i < depth-1; i++ {
			s.Comms = append(s.Comms, comm.Comm{Src: i, Dst: n - 1 - i})
		}
		s.Comms = append(s.Comms, inner)
		return s
	}
	variants := []comm.Comm{{Src: 7, Dst: 56}, {Src: 8, Dst: 55}, {Src: 9, Dst: 40}, {Src: 20, Dst: 54}}
	var dels []Delta
	var sets []*comm.Set
	for i := 0; i < 40; i++ {
		from, to := variants[i%len(variants)], variants[(i+1)%len(variants)]
		dels = append(dels, Delta{Remove: []comm.Comm{from}, Add: []comm.Comm{to}})
		sets = append(sets, chain(to))
	}
	apply, scratch := probeStream(t, tr, chain(variants[0]), dels, sets)
	for i := range apply {
		if apply[i].replayed != 0 || apply[i] != scratch[i] {
			t.Fatalf("nested chain apply %d: counts %+v, want the walk %+v with no replay", i, apply[i], scratch[i])
		}
	}

	applies, replaying, subtrees := 0, 0, 0
	trees := map[int]*topology.Tree{}
	for seed := 0; seed < 500; seed++ {
		init, dels, _ := differentialStream(t, seed)
		tr := trees[init.N]
		if tr == nil {
			tr = topology.MustNew(init.N)
			trees[init.N] = tr
		}
		var opts []Option
		if seed%7 == 0 {
			opts = append(opts, WithSelection(Conservative))
		}
		eng, err := New(tr, init, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunRounds(); err != nil {
			t.Fatal(err)
		}
		for _, d := range dels {
			if _, err := eng.ApplyRounds(d); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			applies++
			if eng.counts.replayed > 0 {
				replaying++
			}
			subtrees += eng.counts.replayed
		}
	}
	t.Logf("differential streams: %d of %d applies replay, %d subtrees in all", replaying, applies, subtrees)
	if replaying == 0 {
		t.Fatal("no differential apply replayed")
	}
}

// TestDeltaReanchorWalksInFull pins that only delta runs record: a
// from-scratch run on an engine that has applied deltas voids its
// records, so the next apply walks exactly what a scratch run walks, and
// the apply after that replays again.
func TestDeltaReanchorWalksInFull(t *testing.T) {
	st := buildDeltaBench(t, 1024, 64, 0.9, 10, 1)
	eng, err := New(st.tr, st.start.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunRounds(); err != nil {
		t.Fatal(err)
	}
	for _, d := range st.dels[:8] {
		if _, err := eng.ApplyRounds(d); err != nil {
			t.Fatal(err)
		}
	}
	if eng.counts.replayed == 0 {
		t.Fatal("no replay before the re-anchor")
	}
	if err := eng.Reset(st.sets[7].Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunRounds(); err != nil {
		t.Fatal(err)
	}
	after, scratch := []phase2Counts{}, []phase2Counts{}
	for i := 8; i < 10; i++ {
		if _, err := eng.ApplyRounds(st.dels[i]); err != nil {
			t.Fatal(err)
		}
		after = append(after, eng.counts)
		ref, err := New(st.tr, st.sets[i].Clone())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.RunRounds(); err != nil {
			t.Fatal(err)
		}
		scratch = append(scratch, ref.counts)
	}
	if after[0] != scratch[0] {
		t.Errorf("first apply after the re-anchor: counts %+v, want the full walk %+v", after[0], scratch[0])
	}
	if after[1].replayed == 0 {
		t.Errorf("second apply after the re-anchor replayed nothing: %+v", after[1])
	}
}
