package lab

import (
	"math"
	"testing"
)

// TestDeltaSweep runs the overlap sweep at the bench shape (sparse
// 64-slot session on N=1024) and pins the twin's two claims: the
// incremental rounds equal the from-scratch reference on every point, and
// the gated 90%-overlap point meets the 2x speedup bound.
func TestDeltaSweep(t *testing.T) {
	res, err := RunDeltaSweep(DeltaSweepConfig{
		N: 1024, Active: 64, Overlaps: []float64{0.5, 0.75, 0.9},
		Phases: 4, Reps: 3, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Rounds != row.ScratchRounds {
			t.Fatalf("overlap %.2f: incremental rounds %d != from-scratch %d",
				row.Overlap, row.Rounds, row.ScratchRounds)
		}
		if row.ApplyNS <= 0 || row.ScratchNS <= 0 {
			t.Fatalf("overlap %.2f: non-positive latency %+v", row.Overlap, row)
		}
	}
	// |delta| shrinks as overlap grows: 32, 16, 6 mutated slots.
	if res.Rows[0].K <= res.Rows[2].K {
		t.Fatalf("K not decreasing with overlap: %d .. %d", res.Rows[0].K, res.Rows[2].K)
	}
	gated := res.Rows[2]
	if !gated.Gated {
		t.Fatalf("90%% overlap point not gated: %+v", gated)
	}
	t.Logf("apply/scratch ratio %.3f at 90%% overlap", gated.Ratio)
	if gated.Ratio > res.Config.GateRatio {
		t.Fatalf("apply/scratch ratio %.2f at 90%% overlap exceeds the %.2f gate",
			gated.Ratio, res.Config.GateRatio)
	}
	if !res.Ok() {
		t.Fatalf("sweep not ok:\n%s", res.Table())
	}
}

// TestDeltaStreamShape pins the workload generator: distinct slots per
// delta, exactly k removes and adds, and canonical sets that track the
// mutation chain.
func TestDeltaStreamShape(t *testing.T) {
	st, err := buildDeltaStream(256, 16, 4, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.dels) != 6 || len(st.sets) != 6 {
		t.Fatalf("stream: %d deltas, %d sets, want 6 each", len(st.dels), len(st.sets))
	}
	if st.start.Len() != 16 {
		t.Fatalf("start set has %d comms, want 16", st.start.Len())
	}
	for p, d := range st.dels {
		if len(d.Remove) != 4 || len(d.Add) != 4 {
			t.Fatalf("phase %d: %d removes, %d adds, want 4 each", p, len(d.Remove), len(d.Add))
		}
		if st.sets[p].Len() != 16 {
			t.Fatalf("phase %d: set size %d, want 16", p, st.sets[p].Len())
		}
	}
	// Over-subscribed active slots reject instead of colliding.
	if _, err := buildDeltaStream(16, 8, 1, 1, 1); err == nil {
		t.Fatal("8 active slots on N=16 (4 available) accepted")
	}
	// More mutated slots per delta than occupied ones, or none, rejects
	// instead of slicing past the permutation.
	for _, k := range []int{17, 0, -1} {
		if _, err := buildDeltaStream(256, 16, k, 1, 1); err == nil {
			t.Errorf("k=%d mutated slots of 16 accepted", k)
		}
	}
	// An overlap outside [0, 1] names no mutation count: -0.5 would ask
	// for 1.5·active slots and 1.5 for a negative number.
	for _, ov := range []float64{-0.5, 1.5, math.NaN()} {
		if _, err := RunDeltaSweep(DeltaSweepConfig{N: 64, Active: 8, Overlaps: []float64{ov}}); err == nil {
			t.Errorf("overlap %v accepted", ov)
		}
	}
}
