package online

import (
	"errors"
	"sort"
	"testing"

	"cst/internal/comm"
	"cst/internal/fault"
	"cst/internal/obs"
	"cst/internal/topology"
)

// FuzzServeBatch serves arbitrary batches on a 16-PE shard, repeated
// pairs, shared endpoints and self loops included, and checks the
// outcomes: every request is answered once; a bad one is refused; the
// rest, regrouped by Dispatched, form runs that are one-orientation
// well-nested sets with no PE twice, take exactly their width in rounds,
// and sit back to back from the batch's arrival round.
func FuzzServeBatch(f *testing.F) {
	f.Add([]byte{0, 15, 1, 14, 0, 15, 3, 3, 15, 0, 2, 9, 9, 2})
	f.Add([]byte{0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13})
	f.Add([]byte{7, 3, 7, 4, 7, 5, 3, 7, 12, 1, 1, 12})
	const pes = 16
	tr, err := topology.New(pes)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batch := make([]comm.Comm, 0, len(data)/2)
		for i := 0; i+1 < len(data) && len(batch) < 64; i += 2 {
			batch = append(batch, comm.Comm{Src: int(data[i] % pes), Dst: int(data[i+1] % pes)})
		}
		s, err := New(pes)
		if err != nil {
			t.Fatal(err)
		}
		// Serve twice, so the second batch meets a warm engine and held
		// crossbars.
		var out []Outcome
		for pass := 0; pass < 2; pass++ {
			var arrival int
			arrival, out = s.Serve(batch, out)
			if len(out) != len(batch) {
				t.Fatalf("%d outcomes for %d requests", len(out), len(batch))
			}
			runs := map[int][]int{} // dispatched round -> batch indices
			for i, o := range out {
				if c := batch[i]; c.Src == c.Dst {
					if o.Err == nil {
						t.Fatalf("self loop %s was served: %+v", c, o)
					}
					continue
				}
				if o.Err != nil {
					t.Fatalf("request %d (%s) refused: %v", i, batch[i], o.Err)
				}
				if arrival > o.Dispatched || o.Dispatched >= o.Finished {
					t.Fatalf("request %d: arrival %d, %+v", i, arrival, o)
				}
				runs[o.Dispatched] = append(runs[o.Dispatched], i)
			}
			starts := make([]int, 0, len(runs))
			for d := range runs {
				starts = append(starts, d)
			}
			sort.Ints(starts)
			next := arrival
			for _, d := range starts {
				if d != next {
					t.Fatalf("run at round %d does not start where the last ended (%d)", d, next)
				}
				set := &comm.Set{N: pes}
				for _, i := range runs[d] {
					if out[i].Finished != out[runs[d][0]].Finished {
						t.Fatalf("run at round %d: members finish at %d and %d", d, out[i].Finished, out[runs[d][0]].Finished)
					}
					set.Comms = append(set.Comms, batch[i])
				}
				if !set.Comms[0].RightOriented() {
					set = set.Mirror()
				}
				if !set.IsWellNested() {
					t.Fatalf("run at round %d is not a one-orientation well-nested set with one role per PE: %s", d, set)
				}
				w, err := set.Width(tr)
				if err != nil {
					t.Fatal(err)
				}
				if rounds := out[runs[d][0]].Finished - d; rounds != w {
					t.Fatalf("run %s took %d rounds, width %d", set, rounds, w)
				}
				next = out[runs[d][0]].Finished
			}
			if next != s.Now() {
				t.Fatalf("last run ends at %d, clock at %d", next, s.Now())
			}
		}
	})
}

// TestServeRefusesAndQuarantines pins Serve's failure outcomes: a bad
// request is refused without a run, a run that fails every attempt is
// quarantined with the fault in its error chain while the batch's other
// runs complete, and neither the queue nor the completion records move.
func TestServeRefusesAndQuarantines(t *testing.T) {
	var plan []fault.Fault
	for run := 0; run < MaxDispatchAttempts; run++ {
		plan = append(plan, fault.Fault{Kind: fault.FreezeSwitch, Node: 1, Run: run, Round: 0, Duration: 64})
	}
	reg := obs.New()
	s, err := New(16, WithFaults(fault.New(plan)), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	// Runs: {0->7, 1->6} (poisoned), then {0->7} again (PE 0 repeats),
	// then {12->9}; 5->5 is refused.
	batch := []comm.Comm{{Src: 0, Dst: 7}, {Src: 1, Dst: 6}, {Src: 0, Dst: 7}, {Src: 5, Dst: 5}, {Src: 12, Dst: 9}}
	arrival, out := s.Serve(batch, nil)
	if arrival != 0 {
		t.Fatalf("arrival = %d, want 0", arrival)
	}
	for _, i := range []int{0, 1} {
		if !errors.Is(out[i].Err, fault.ErrSwitchDown) || out[i].Dispatched != 0 || out[i].Finished != 0 {
			t.Errorf("request %d: %+v, want a quarantine carrying fault.ErrSwitchDown", i, out[i])
		}
	}
	if out[3].Err == nil {
		t.Errorf("self loop served: %+v", out[3])
	}
	for _, i := range []int{2, 4} {
		if o := out[i]; o.Err != nil || o.Finished != o.Dispatched+1 {
			t.Errorf("request %d: %+v, want a 1-round run", i, o)
		}
	}
	if out[2].Dispatched == out[4].Dispatched {
		t.Errorf("0->7 and 12->9 share a run: opposite orientations")
	}
	st := s.Finish()
	if st.Batches != 2 || st.Retries != MaxDispatchAttempts-1 || len(st.Completed) != 0 || len(st.Quarantined) != 0 || st.Leftover != 0 {
		t.Errorf("stats: %d runs, %d retries, %d completion and %d quarantine records, %d queued; want 2, %d, 0, 0, 0",
			st.Batches, st.Retries, len(st.Completed), len(st.Quarantined), st.Leftover, MaxDispatchAttempts-1)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"cst_online_requests_total":    4,
		"cst_online_rejected_total":    1,
		"cst_online_quarantined_total": 2,
		"cst_online_completed_total":   2,
		"cst_online_batches_total":     2,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["cst_online_queue_len"]; got != 0 {
		t.Errorf("cst_online_queue_len = %d, want 0", got)
	}
}

// TestServeSteadyStateAllocs pins Serve at zero allocations once its
// scratch, the engine and the caller's outcome slice are warm, on a batch
// with a repeated pair, a shared endpoint, a crossing and both
// orientations.
func TestServeSteadyStateAllocs(t *testing.T) {
	s, err := New(64)
	if err != nil {
		t.Fatal(err)
	}
	batch := []comm.Comm{{Src: 1, Dst: 8}, {Src: 2, Dst: 4}, {Src: 1, Dst: 8}, {Src: 4, Dst: 9},
		{Src: 6, Dst: 12}, {Src: 40, Dst: 33}, {Src: 63, Dst: 0}}
	var out []Outcome
	for i := 0; i < 3; i++ {
		_, out = s.Serve(batch, out)
	}
	avg := testing.AllocsPerRun(50, func() {
		_, out = s.Serve(batch, out)
	})
	if avg > 0 {
		t.Fatalf("steady-state Serve allocates %.2f/call, want 0", avg)
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("request %d: %v", i, o.Err)
		}
	}
}
