package deliver

import (
	"math/rand"
	"strings"
	"testing"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/padr"
	"cst/internal/topology"
	"cst/internal/xbar"
)

func snapshot(t *topology.Tree, switches []*xbar.Switch) circuit.RoundConfig {
	cfg := circuit.RoundConfig{}
	t.EachSwitch(func(n topology.Node) { cfg[n] = switches[n].Config() })
	return cfg
}

func TestPropagateSingleCircuit(t *testing.T) {
	tr := topology.MustNew(8)
	switches := circuit.NewSwitches(tr)
	c := comm.Comm{Src: 1, Dst: 6}
	if err := circuit.Configure(tr, switches, c); err != nil {
		t.Fatal(err)
	}
	tokens := Propagate(tr, snapshot(tr, switches), []int{1})
	if tokens[6] != 1 {
		t.Fatalf("destination 6 read %d, want 1", tokens[6])
	}
	for pe, tok := range tokens {
		if pe != 6 && tok != NoToken {
			t.Fatalf("idle PE %d read %d", pe, tok)
		}
	}
}

func TestPropagateParallelCircuits(t *testing.T) {
	tr := topology.MustNew(16)
	switches := circuit.NewSwitches(tr)
	comms := []comm.Comm{{Src: 0, Dst: 3}, {Src: 4, Dst: 7}, {Src: 9, Dst: 14}}
	for _, c := range comms {
		if err := circuit.Configure(tr, switches, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := VerifyRound(tr, snapshot(tr, switches), comms); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRoundDetectsMisdelivery(t *testing.T) {
	tr := topology.MustNew(8)
	switches := circuit.NewSwitches(tr)
	// Configure the circuit for 1->6 but claim 1->5 was performed.
	if err := circuit.Configure(tr, switches, comm.Comm{Src: 1, Dst: 6}); err != nil {
		t.Fatal(err)
	}
	err := VerifyRound(tr, snapshot(tr, switches), []comm.Comm{{Src: 1, Dst: 5}})
	if err == nil || !strings.Contains(err.Error(), "read token") {
		t.Fatalf("want misdelivery error, got %v", err)
	}
}

func TestPropagateNoSources(t *testing.T) {
	tr := topology.MustNew(4)
	tokens := Propagate(tr, circuit.RoundConfig{}, nil)
	for pe, tok := range tokens {
		if tok != NoToken {
			t.Fatalf("PE %d read %d from an unconfigured tree", pe, tok)
		}
	}
}

// Theorem 4 end-to-end: every round of a PADR run, replayed purely through
// the captured switch configurations, delivers every scheduled token.
func TestPADRDataPlane(t *testing.T) {
	for _, expr := range []string{
		"(.)",
		"(())",
		"(()())..",
		"((.)((.)..).)(.)",
		"(((())))",
	} {
		s, err := comm.Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		tr := topology.MustNew(s.N)
		var rec Recorder
		e, err := padr.New(tr, s, padr.WithObserver(rec.Observer()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		if rec.Rounds() != res.Rounds {
			t.Fatalf("%q: recorder captured %d rounds, engine ran %d", expr, rec.Rounds(), res.Rounds)
		}
		if err := rec.Verify(tr); err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
	}
}

func TestPADRDataPlaneRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		n := 1 << (2 + rng.Intn(5))
		s, err := comm.RandomWellNested(rng, n, rng.Intn(n/2+1))
		if err != nil {
			t.Fatal(err)
		}
		tr := topology.MustNew(n)
		var rec Recorder
		e, err := padr.New(tr, s, padr.WithObserver(rec.Observer()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("set %s: %v", s, err)
		}
		if err := rec.Verify(tr); err != nil {
			t.Fatalf("set %s: %v", s, err)
		}
	}
}

func TestRecorderMismatch(t *testing.T) {
	r := &Recorder{rounds: []circuit.RoundConfig{{}}}
	if err := r.Verify(topology.MustNew(4)); err == nil {
		t.Fatal("mismatched recorder must fail verification")
	}
}

func TestRecorderConfigAccessor(t *testing.T) {
	s := comm.MustParse("(())")
	tr := topology.MustNew(4)
	var rec Recorder
	e, err := padr.New(tr, s, padr.WithObserver(rec.Observer()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	cfg := rec.Config(0)
	if len(cfg) == 0 {
		t.Fatal("round 0 snapshot empty")
	}
	// Round 0 schedules the outer pair (0,3): the root must be l->r.
	if cfg[tr.Root()].Driver(xbar.R) != xbar.L {
		t.Fatalf("root config in round 0: %s", cfg[tr.Root()])
	}
}
