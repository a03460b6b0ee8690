package hybrid

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/obs"
	"cst/internal/power"
	"cst/internal/sched"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// fullScanReplay is the reference for replay's traced diff: it snapshots
// and compares every switch of the tree each round and returns the
// round.start, switch.config and round.done events that stream produces,
// rendered without timings.
func fullScanReplay(t *testing.T, tr *topology.Tree, sch *sched.Schedule, mode power.Mode) []string {
	t.Helper()
	switches := circuit.NewSwitches(tr)
	before := make([]xbar.Config, len(switches))
	var out []string
	for i, round := range sch.Rounds {
		out = append(out, fmt.Sprintf("round.start %d", i))
		if mode == power.Stateless {
			tr.EachSwitch(func(n topology.Node) { switches[n].Reset() })
		}
		tr.EachSwitch(func(n topology.Node) { before[n] = switches[n].Config() })
		for _, c := range round {
			if err := circuit.ConfigureAny(tr, switches, c); err != nil {
				t.Fatal(err)
			}
		}
		tr.EachSwitch(func(n topology.Node) {
			if after := switches[n].Config(); after != before[n] {
				out = append(out, fmt.Sprintf("switch.config %d %d %s", i, n, after))
			}
		})
		out = append(out, fmt.Sprintf("round.done %d %d", i, len(round)))
	}
	return out
}

// The traced replay diffs only the switches on each round's circuits; its
// event stream must equal a full scan's, event for event and in node
// order, on bit reversal and 100 seeded sets in both power modes.
func TestTracedReplayMatchesFullScan(t *testing.T) {
	tr := topology.MustNew(32)
	bitrev, err := comm.BitReversal(32)
	if err != nil {
		t.Fatal(err)
	}
	sets := []*comm.Set{bitrev}
	rng := rand.New(rand.NewSource(31))
	for len(sets) < 101 {
		s, err := comm.RandomTwoSided(rng, 32, 1+rng.Intn(16))
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s)
	}
	for _, mode := range []power.Mode{power.Stateful, power.Stateless} {
		for k, s := range sets {
			var got []string
			tracer := obs.NewTracer(nil, 64)
			tracer.SetSink(func(e obs.Event) {
				switch e.Type {
				case "round.start":
					got = append(got, fmt.Sprintf("round.start %d", e.Round))
				case "switch.config":
					got = append(got, fmt.Sprintf("switch.config %d %d %s", e.Round, e.Node, e.Config))
				case "round.done":
					got = append(got, fmt.Sprintf("round.done %d %d", e.Round, e.N))
				}
			})
			plan, err := Schedule(tr, s, WithTracer(tracer), WithMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			if want := fullScanReplay(t, tr, plan.Schedule, mode); !slices.Equal(got, want) {
				t.Fatalf("%s set %d (%v): traced replay\n%v\nfull scan\n%v", mode, k, s.Comms, got, want)
			}
		}
	}
}
