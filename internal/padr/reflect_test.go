package padr

import (
	"testing"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/topology"
)

// A mirrored run must land its connections on the reflected physical
// switches with l and r exchanged: scheduling the mirror of leftward
// 7->4 (i.e. rightward 0->3 on the mirrored line) must configure the
// physical switches serving leaves 4..7.
func TestReflectedRunBillsPhysicalSwitches(t *testing.T) {
	tr := topology.MustNew(8)
	switches := circuit.NewSwitches(tr)

	leftward := comm.NewSet(8, comm.Comm{Src: 7, Dst: 4})
	mirrored := leftward.Mirror() // 0 -> 3
	if !mirrored.IsWellNested() {
		t.Fatal("mirrored set must be well nested")
	}
	e, err := New(tr, mirrored, WithCrossbars(switches), WithReflection(true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	// The physical leftward circuit 7->4 uses: node 7 (r->p), node 3
	// (r->l), node 6 (p->l). Node 2's subtree must stay untouched.
	if got := switches[7].Config().String(); got != "[r->p]" {
		t.Errorf("node 7 config = %s, want [r->p]", got)
	}
	if got := switches[3].Config().String(); got != "[r->l]" {
		t.Errorf("node 3 config = %s, want [r->l]", got)
	}
	if got := switches[6].Config().String(); got != "[p->l]" {
		t.Errorf("node 6 config = %s, want [p->l]", got)
	}
	for _, n := range []topology.Node{1, 2, 4, 5} {
		if switches[n].Units() != 0 {
			t.Errorf("node %d touched (%d units) by a circuit confined to the right half", n, switches[n].Units())
		}
	}
}

// Reflection is an involution on nodes and preserves levels.
func TestTreeReflect(t *testing.T) {
	tr := topology.MustNew(16)
	for n := topology.Node(1); int(n) < 32; n++ {
		r := tr.Reflect(n)
		if !tr.Valid(r) {
			t.Fatalf("Reflect(%d) = %d invalid", n, r)
		}
		if tr.Depth(r) != tr.Depth(n) {
			t.Fatalf("Reflect(%d) changed depth", n)
		}
		if tr.Reflect(r) != n {
			t.Fatalf("Reflect not an involution at %d", n)
		}
	}
	// Root maps to itself; leaf i maps to leaf N-1-i.
	if tr.Reflect(1) != 1 {
		t.Fatal("root must be its own mirror")
	}
	for pe := 0; pe < 16; pe++ {
		if tr.Reflect(tr.Leaf(pe)) != tr.Leaf(15-pe) {
			t.Fatalf("leaf %d reflects wrong", pe)
		}
	}
	// Reflection swaps children: Reflect(Left(u)) == Right(Reflect(u)).
	tr.EachSwitch(func(u topology.Node) {
		if tr.Reflect(tr.Left(u)) != tr.Right(tr.Reflect(u)) {
			t.Fatalf("reflection does not swap children at %d", u)
		}
	})
}

// Opposite-orientation circuits that share no physical resources must not
// charge each other: a steady mixed pattern in disjoint subtrees costs one
// connection per switch regardless of how many times it repeats.
func TestSharedCrossbarsAcrossOrientations(t *testing.T) {
	tr := topology.MustNew(16)
	switches := circuit.NewSwitches(tr)
	rightSet := comm.NewSet(16, comm.Comm{Src: 0, Dst: 3})  // left subtree
	leftSet := comm.NewSet(16, comm.Comm{Src: 15, Dst: 12}) // right subtree, leftward
	mirrored := leftSet.Mirror()                            // 0->3 on the mirrored line
	for cycle := 0; cycle < 5; cycle++ {
		e, err := New(tr, rightSet.Clone(), WithCrossbars(switches))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e, err = New(tr, mirrored.Clone(), WithCrossbars(switches), WithReflection(true))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	maxUnits := 0
	for _, sw := range switches[1:] {
		if sw.Units() > maxUnits {
			maxUnits = sw.Units()
		}
	}
	if maxUnits != 1 {
		t.Fatalf("steady disjoint pattern: max units = %d, want 1", maxUnits)
	}
}
