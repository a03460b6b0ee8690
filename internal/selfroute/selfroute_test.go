package selfroute

import (
	"math/rand"
	"testing"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/deliver"
	"cst/internal/topology"
)

func TestRouteSingleRightward(t *testing.T) {
	tr := topology.MustNew(8)
	switches := circuit.NewSwitches(tr)
	hops, err := Route(tr, switches, comm.Comm{Src: 0, Dst: 7})
	if err != nil {
		t.Fatal(err)
	}
	if hops != 5 {
		t.Fatalf("hops = %d, want 5", hops)
	}
	// The data plane must deliver: the same check Theorem 4 uses.
	cfg := circuit.RoundConfig{}
	tr.EachSwitch(func(n topology.Node) { cfg[n] = switches[n].Config() })
	if err := deliver.VerifyRound(tr, cfg, []comm.Comm{{Src: 0, Dst: 7}}); err != nil {
		t.Fatal(err)
	}
}

// Self-routing handles leftward communications natively — no mirroring.
func TestRouteLeftward(t *testing.T) {
	tr := topology.MustNew(8)
	switches := circuit.NewSwitches(tr)
	if _, err := Route(tr, switches, comm.Comm{Src: 6, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	cfg := circuit.RoundConfig{}
	tr.EachSwitch(func(n topology.Node) { cfg[n] = switches[n].Config() })
	if err := deliver.VerifyRound(tr, cfg, []comm.Comm{{Src: 6, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteErrors(t *testing.T) {
	tr := topology.MustNew(8)
	switches := circuit.NewSwitches(tr)
	if _, err := Route(tr, switches, comm.Comm{Src: 3, Dst: 3}); err == nil {
		t.Error("self loop: want error")
	}
	if _, err := Route(tr, switches, comm.Comm{Src: 0, Dst: 9}); err == nil {
		t.Error("out of range: want error")
	}
	if _, err := Route(tr, nil, comm.Comm{Src: 0, Dst: 3}); err == nil {
		t.Error("missing switches: want error")
	}
}

func TestDisjoint(t *testing.T) {
	tr := topology.MustNew(8)
	// (0,1) and (2,3) use separate subtrees: disjoint.
	disj := comm.NewSet(8, comm.Comm{Src: 0, Dst: 1}, comm.Comm{Src: 2, Dst: 3})
	ok, err := Disjoint(tr, disj)
	if err != nil || !ok {
		t.Fatalf("want disjoint, got %v/%v", ok, err)
	}
	// (1,2) and (3,0): opposite directions but shared links — NOT disjoint
	// in the sense of [3], even though they are compatible for scheduling.
	shared := comm.NewSet(8, comm.Comm{Src: 1, Dst: 2}, comm.Comm{Src: 3, Dst: 0})
	ok, err = Disjoint(tr, shared)
	if err != nil || ok {
		t.Fatalf("want not disjoint, got %v/%v", ok, err)
	}
}

func TestRouteAllDisjointSet(t *testing.T) {
	tr := topology.MustNew(16)
	// A mixed-orientation disjoint set: one pair per 4-leaf block.
	s := comm.NewSet(16,
		comm.Comm{Src: 0, Dst: 3},
		comm.Comm{Src: 7, Dst: 4}, // leftward
		comm.Comm{Src: 8, Dst: 11},
		comm.Comm{Src: 15, Dst: 12}, // leftward
	)
	res, err := RouteAll(tr, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Report.Rounds)
	}
	if res.MaxHops > 2*tr.Levels()-1 {
		t.Fatalf("max hops %d exceeds the O(log N) bound", res.MaxHops)
	}
	if res.Hops != res.Report.TotalUnits() {
		t.Fatalf("hops %d != units %d", res.Hops, res.Report.TotalUnits())
	}
}

func TestRouteAllRejectsNonDisjoint(t *testing.T) {
	tr := topology.MustNew(8)
	nested := comm.MustParse("(())....")
	if _, err := RouteAll(tr, nested); err == nil {
		t.Fatal("nested set must be rejected — that's what CSA is for")
	}
	invalid := comm.NewSet(8, comm.Comm{Src: 0, Dst: 99})
	if _, err := RouteAll(tr, invalid); err == nil {
		t.Fatal("invalid set: want error")
	}
	if _, err := RouteAll(topology.MustNew(16), nested); err == nil {
		t.Fatal("size mismatch: want error")
	}
}

// Random disjoint sets: build them by giving each communication its own
// aligned block, then verify routing and delivery.
func TestRouteAllRandomDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := topology.MustNew(64)
	for trial := 0; trial < 30; trial++ {
		s := &comm.Set{N: 64}
		for block := 0; block < 8; block++ {
			if rng.Intn(3) == 0 {
				continue
			}
			base := block * 8
			a := base + rng.Intn(8)
			b := base + rng.Intn(8)
			if a == b {
				continue
			}
			s.Comms = append(s.Comms, comm.Comm{Src: a, Dst: b})
		}
		ok, err := Disjoint(tr, s)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue // block-local pairs usually but not always disjoint
		}
		res, err := RouteAll(tr, s)
		if err != nil {
			t.Fatalf("set %v: %v", s.Comms, err)
		}
		// Replay the data plane.
		switches := circuit.NewSwitches(tr)
		for _, c := range s.Comms {
			if _, err := Route(tr, switches, c); err != nil {
				t.Fatal(err)
			}
		}
		cfg := circuit.RoundConfig{}
		tr.EachSwitch(func(n topology.Node) { cfg[n] = switches[n].Config() })
		if err := deliver.VerifyRound(tr, cfg, s.Comms); err != nil {
			t.Fatalf("set %v: %v", s.Comms, err)
		}
		_ = res
	}
}
