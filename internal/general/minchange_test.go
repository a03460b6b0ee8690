package general

import (
	"math/rand"
	"testing"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/deliver"
	"cst/internal/energy"
	"cst/internal/padr"
	"cst/internal/topology"
)

func TestMinChangeRejectsBadInput(t *testing.T) {
	tr := topology.MustNew(8)
	if _, err := MinChangeSchedule(tr, comm.MustParse("(())"), 100); err == nil {
		t.Error("size mismatch: want error")
	}
	leftward := comm.NewSet(8, comm.Comm{Src: 5, Dst: 1})
	if _, err := MinChangeSchedule(tr, leftward, 100); err == nil {
		t.Error("left-oriented: want error")
	}
}

func TestMinChangeEmpty(t *testing.T) {
	tr := topology.MustNew(8)
	res, err := MinChangeSchedule(tr, comm.NewSet(8), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changes != 0 || !res.Exhaustive {
		t.Fatalf("empty: %+v", res)
	}
}

func TestMinChangeSingle(t *testing.T) {
	tr := topology.MustNew(8)
	s := comm.MustParse("(......)")
	res, err := MinChangeSchedule(tr, s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.VerifyOptimal(tr); err != nil {
		t.Fatal(err)
	}
	// One circuit over 8 leaves: 5 switches, 5 connections, all in round 0.
	if res.Changes != 5 || res.MaxPerSwitch != 1 {
		t.Fatalf("res = %+v", res)
	}
}

// The question the E12 finding raises: on the minimal divergence example,
// does ANY width-optimal schedule avoid the extra churn? MinChangeSchedule
// answers exactly; the greedy engine's run must cost at least as much.
func TestMinChangeOnDivergenceExample(t *testing.T) {
	tr := topology.MustNew(16)
	s := comm.MustParse("..(((()(....))))")
	opt, err := MinChangeSchedule(tr, s, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Schedule.VerifyOptimal(tr); err != nil {
		t.Fatal(err)
	}
	if !opt.Exhaustive {
		t.Fatal("instance small enough to exhaust")
	}

	// Price the greedy engine's actual schedule the same way.
	var rec deliver.Recorder
	e, err := padr.New(tr, s, padr.WithObserver(rec.Observer()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rounds := make([]circuit.RoundConfig, rec.Rounds())
	for i := range rounds {
		rounds[i] = rec.Config(i)
	}
	greedyChanges := energy.Evaluate(tr, rounds, energy.Paper).Changes
	if opt.Changes > greedyChanges {
		t.Fatalf("optimum %d worse than greedy engine %d", opt.Changes, greedyChanges)
	}
	t.Logf("divergence example: optimal width-round changes=%d (max/switch %d), greedy engine=%d",
		opt.Changes, opt.MaxPerSwitch, greedyChanges)
}

func TestMinChangeRandomUpperBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := topology.MustNew(16)
	for trial := 0; trial < 10; trial++ {
		s, err := comm.RandomWellNested(rng, 16, 2+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := MinChangeSchedule(tr, s, 500_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.VerifyOptimal(tr); err != nil {
			t.Fatalf("set %s: %v", s, err)
		}
		// Lower bound: every *distinct* connection used by some circuit must
		// be established at least once. (Circuits may share connections —
		// e.g. two comms entering a switch from the parent toward the same
		// child in different rounds — and a held connection serves both for
		// free, so summing hop counts would overcount.)
		distinct := map[[3]int]bool{}
		for _, c := range s.Comms {
			sws := connectionsOf(t, tr, c)
			for _, k := range sws {
				distinct[k] = true
			}
		}
		if res.Changes < len(distinct) {
			t.Fatalf("set %s: %d changes below the distinct-connection bound %d", s, res.Changes, len(distinct))
		}
	}
}

// connectionsOf lists the (node, out, in) connections of one circuit by
// configuring it on fresh switches.
func connectionsOf(t *testing.T, tr *topology.Tree, c comm.Comm) [][3]int {
	t.Helper()
	switches := circuit.NewSwitches(tr)
	if err := circuit.Configure(tr, switches, c); err != nil {
		t.Fatal(err)
	}
	var out [][3]int
	tr.EachSwitch(func(n topology.Node) {
		for _, conn := range switches[n].Config().Conns() {
			out = append(out, [3]int{int(n), int(conn.Out), int(conn.In)})
		}
	})
	return out
}

func TestMinChangeBudgetTooSmall(t *testing.T) {
	tr := topology.MustNew(16)
	s := comm.MustParse("..(((()(....))))")
	res, err := MinChangeSchedule(tr, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhaustive {
		t.Fatal("budget 1 cannot exhaust this instance")
	}
	if err := res.Schedule.Verify(tr); err != nil {
		t.Fatalf("bounded result must still be valid: %v", err)
	}
}
