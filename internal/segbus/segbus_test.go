package segbus

import (
	"math/rand"
	"testing"

	"cst/internal/comm"
	"cst/internal/topology"
)

func TestNewAndSegments(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("n=1: want error")
	}
	b, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	segs := b.Segments()
	if len(segs) != 1 || segs[0] != [2]int{0, 8} {
		t.Fatalf("fresh bus segments = %v", segs)
	}
	if err := b.Split(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Split(5); err != nil {
		t.Fatal(err)
	}
	segs = b.Segments()
	want := [][2]int{{0, 4}, {4, 6}, {6, 8}}
	if len(segs) != 3 {
		t.Fatalf("segments = %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segments = %v, want %v", segs, want)
		}
	}
	if err := b.Split(99); err == nil {
		t.Error("bad gap: want error")
	}
}

func TestSegmentOf(t *testing.T) {
	b, _ := New(8)
	if err := b.Split(3); err != nil {
		t.Fatal(err)
	}
	seg, err := b.SegmentOf(2)
	if err != nil || seg != [2]int{0, 4} {
		t.Fatalf("SegmentOf(2) = %v, %v", seg, err)
	}
	seg, err = b.SegmentOf(4)
	if err != nil || seg != [2]int{4, 8} {
		t.Fatalf("SegmentOf(4) = %v, %v", seg, err)
	}
	if _, err := b.SegmentOf(8); err == nil {
		t.Error("out of range PE: want error")
	}
}

func TestCommSetValidation(t *testing.T) {
	b, _ := New(8)
	if err := b.Split(3); err != nil {
		t.Fatal(err)
	}
	// Valid: one transfer per segment, either direction.
	set, err := b.CommSet(Cycle{Transfers: []Transfer{{Writer: 0, Reader: 2}, {Writer: 6, Reader: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("set = %v", set.Comms)
	}
	// Reader outside the writer's segment.
	if _, err := b.CommSet(Cycle{Transfers: []Transfer{{Writer: 0, Reader: 5}}}); err == nil {
		t.Error("cross-segment transfer: want error")
	}
	// Two transfers in one segment.
	if _, err := b.CommSet(Cycle{Transfers: []Transfer{{Writer: 0, Reader: 1}, {Writer: 2, Reader: 3}}}); err == nil {
		t.Error("two transfers in a segment: want error")
	}
	// Self loop.
	if _, err := b.CommSet(Cycle{Transfers: []Transfer{{Writer: 1, Reader: 1}}}); err == nil {
		t.Error("self loop: want error")
	}
}

func TestCommSetNonPowerOfTwo(t *testing.T) {
	b, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CommSet(Cycle{}); err == nil {
		t.Error("non power-of-two bus cannot map onto a CST: want error")
	}
}

// Each cycle is width <= 1 per orientation, so a cycle costs at most two
// CST rounds (one per orientation).
func TestCycleWidthIsOne(t *testing.T) {
	b, _ := New(16)
	for _, g := range []int{3, 7, 11} {
		if err := b.Split(g); err != nil {
			t.Fatal(err)
		}
	}
	cyc := Cycle{Transfers: []Transfer{
		{Writer: 0, Reader: 3}, {Writer: 7, Reader: 4}, {Writer: 8, Reader: 11}, {Writer: 15, Reader: 12},
	}}
	set, err := b.CommSet(cyc)
	if err != nil {
		t.Fatal(err)
	}
	right, leftM := comm.Decompose(set)
	tr := topology.MustNew(16)
	for _, s := range []*comm.Set{right, leftM} {
		w, err := s.Width(tr)
		if err != nil {
			t.Fatal(err)
		}
		if w > 1 {
			t.Fatalf("oriented cycle width = %d, want <= 1", w)
		}
		if !s.IsWellNested() {
			t.Fatalf("oriented cycle not well nested: %s", s)
		}
	}
}

func TestRunProgram(t *testing.T) {
	tr := topology.MustNew(16)
	b, _ := New(16)
	rng := rand.New(rand.NewSource(4))
	prog, err := RandomProgram(rng, b, 20, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProgram(tr, b, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 20 {
		t.Fatalf("cycles = %d", res.Cycles)
	}
	if res.Rounds > 40 {
		t.Fatalf("rounds = %d, want <= 2 per cycle", res.Rounds)
	}
	// Power is accumulated but bounded: a steady segment pattern re-uses
	// configurations across cycles, so the per-switch total must stay far
	// below 3 units per cycle.
	if maxu := res.Report.MaxUnits(); maxu > 2*res.Rounds {
		t.Fatalf("max units %d out of range for %d rounds", maxu, res.Rounds)
	}
	if res.Report.TotalUnits() == 0 && res.Rounds > 0 {
		t.Fatal("program did work but spent nothing")
	}
}

func TestRunProgramErrors(t *testing.T) {
	tr := topology.MustNew(8)
	b, _ := New(16)
	if _, err := RunProgram(tr, b, nil); err == nil {
		t.Error("size mismatch: want error")
	}
	b8, _ := New(8)
	bad := []Cycle{{Transfers: []Transfer{{Writer: 0, Reader: 0}}}}
	if _, err := RunProgram(topology.MustNew(8), b8, bad); err == nil {
		t.Error("bad cycle: want error")
	}
}

func TestRandomProgramValidation(t *testing.T) {
	b, _ := New(16)
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomProgram(rng, b, 5, 3, 0.5); err == nil {
		t.Error("segment width not dividing n: want error")
	}
	if _, err := RandomProgram(rng, b, 5, 1, 0.5); err == nil {
		t.Error("segment width 1: want error")
	}
	prog, err := RandomProgram(rng, b, 10, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 10 {
		t.Fatalf("program length %d", len(prog))
	}
	for _, cyc := range prog {
		if len(cyc.Transfers) != 4 {
			t.Fatalf("density 1.0 must fill all 4 segments, got %d", len(cyc.Transfers))
		}
	}
}
