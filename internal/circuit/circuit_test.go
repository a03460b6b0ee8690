package circuit

import (
	"math/rand"
	"testing"

	"cst/internal/comm"
	"cst/internal/topology"
	"cst/internal/xbar"
)

func TestConfigureAdjacentPair(t *testing.T) {
	tr := topology.MustNew(4)
	switches := NewSwitches(tr)
	if err := Configure(tr, switches, comm.Comm{Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	// Only the parent of leaves 0 and 1 (node 2) is touched: l->r.
	if got := switches[2].Config().String(); got != "[l->r]" {
		t.Fatalf("node 2 config = %s", got)
	}
	if switches[1].Units() != 0 || switches[3].Units() != 0 {
		t.Fatal("untouched switches must stay idle")
	}
}

func TestConfigureFullSpan(t *testing.T) {
	tr := topology.MustNew(8)
	switches := NewSwitches(tr)
	if err := Configure(tr, switches, comm.Comm{Src: 0, Dst: 7}); err != nil {
		t.Fatal(err)
	}
	// Up: node 4 (l->p), node 2 (l->p); turn at root (l->r); down: node 3
	// (p->r), node 7 (p->r).
	wants := map[topology.Node]string{
		4: "[l->p]", 2: "[l->p]", 1: "[l->r]", 3: "[p->r]", 7: "[p->r]",
	}
	for n, want := range wants {
		if got := switches[n].Config().String(); got != want {
			t.Errorf("node %d config = %s, want %s", n, got, want)
		}
	}
	// Total connections = number of path switches.
	total := 0
	for _, sw := range switches[1:] {
		total += sw.Units()
	}
	if total != 5 {
		t.Fatalf("total units = %d, want 5", total)
	}
}

// ConfigureAny on a left-oriented comm is the exact reflection of
// Configure on its mirror image: same per-switch connection shapes with L
// and R exchanged and the node reflected.
func TestConfigureAnyLeftOriented(t *testing.T) {
	tr := topology.MustNew(8)
	switches := NewSwitches(tr)
	if err := ConfigureAny(tr, switches, comm.Comm{Src: 7, Dst: 0}); err != nil {
		t.Fatal(err)
	}
	// Up: node 7 (r->p), node 3 (r->p); turn at root (r->l); down: node 2
	// (p->l), node 4 (p->l).
	wants := map[topology.Node]string{
		7: "[r->p]", 3: "[r->p]", 1: "[r->l]", 2: "[p->l]", 4: "[p->l]",
	}
	for n, want := range wants {
		if got := switches[n].Config().String(); got != want {
			t.Errorf("node %d config = %s, want %s", n, got, want)
		}
	}
	// Mixing the two orientations in one round is fine when the directed
	// links are disjoint: the opposite comm over the same span shares no
	// directed edge with the first, so no established connection is
	// re-driven (overwrites are how xbar models congestion; Verify is the
	// authority on compatibility).
	changesBefore := 0
	for _, sw := range switches[1:] {
		changesBefore += sw.TotalAlternations()
	}
	if err := ConfigureAny(tr, switches, comm.Comm{Src: 1, Dst: 6}); err != nil {
		t.Fatalf("opposite orientation over the same switches must coexist: %v", err)
	}
	changesAfter := 0
	for _, sw := range switches[1:] {
		changesAfter += sw.TotalAlternations()
	}
	if changesAfter != changesBefore {
		t.Fatalf("disjoint directed circuits re-drove %d outputs", changesAfter-changesBefore)
	}
	if err := ConfigureAny(tr, switches, comm.Comm{Src: 3, Dst: 3}); err == nil {
		t.Fatal("self loop must be rejected")
	}
}

func TestConfigureRightSubtreeSource(t *testing.T) {
	tr := topology.MustNew(8)
	switches := NewSwitches(tr)
	// Source 3 hangs right of node 5; node 5 must connect r->p.
	if err := Configure(tr, switches, comm.Comm{Src: 3, Dst: 4}); err != nil {
		t.Fatal(err)
	}
	if got := switches[5].Config().String(); got != "[r->p]" {
		t.Fatalf("node 5 config = %s", got)
	}
	if got := switches[6].Config().String(); got != "[p->l]" {
		t.Fatalf("node 6 config = %s", got)
	}
}

func TestConfigureRejectsBadComms(t *testing.T) {
	tr := topology.MustNew(8)
	switches := NewSwitches(tr)
	if err := Configure(tr, switches, comm.Comm{Src: 5, Dst: 2}); err == nil {
		t.Error("left-oriented: want error")
	}
	if err := Configure(tr, switches, comm.Comm{Src: -1, Dst: 2}); err == nil {
		t.Error("negative src: want error")
	}
	if err := Configure(tr, switches, comm.Comm{Src: 0, Dst: 8}); err == nil {
		t.Error("out of range dst: want error")
	}
}

func TestConfigureNilSwitch(t *testing.T) {
	tr := topology.MustNew(8)
	for _, switches := range [][]*xbar.Switch{nil, make([]*xbar.Switch, 8)} {
		if err := Configure(tr, switches, comm.Comm{Src: 0, Dst: 7}); err == nil {
			t.Errorf("%d switch slots, none set: want error", len(switches))
		}
	}
}

// Property: a random circuit touches exactly HopCount switches, each with
// one connection.
func TestConfigureTouchesExactlyPathSwitches(t *testing.T) {
	tr := topology.MustNew(64)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		a, b := rng.Intn(64), rng.Intn(64)
		if a >= b {
			continue
		}
		switches := NewSwitches(tr)
		if err := Configure(tr, switches, comm.Comm{Src: a, Dst: b}); err != nil {
			t.Fatal(err)
		}
		hops, err := tr.HopCount(a, b)
		if err != nil {
			t.Fatal(err)
		}
		touched := 0
		for _, sw := range switches[1:] {
			if sw.Units() > 0 {
				if sw.Units() != 1 {
					t.Fatalf("%d->%d: a switch made %d connections", a, b, sw.Units())
				}
				touched++
			}
		}
		if touched != hops {
			t.Fatalf("%d->%d: touched %d switches, path has %d", a, b, touched, hops)
		}
	}
}
