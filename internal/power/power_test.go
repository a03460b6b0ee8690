package power

import (
	"strings"
	"testing"

	"cst/internal/circuit"
	"cst/internal/topology"
	"cst/internal/xbar"
)

func makeReport(t *testing.T) *Report {
	t.Helper()
	tr := topology.MustNew(8)
	switches := circuit.NewSwitches(tr)
	// Root: 3 connects with an alternation on P... root is node 1.
	mustConn(t, switches[1], xbar.L, xbar.R)
	mustConn(t, switches[1], xbar.L, xbar.P)
	mustConn(t, switches[1], xbar.R, xbar.P) // alternation on P
	// Node 2: one connect.
	mustConn(t, switches[2], xbar.P, xbar.L)
	return Collect("padr", Stateful, 4, tr, switches)
}

func mustConn(t *testing.T, sw *xbar.Switch, in, out xbar.Side) {
	t.Helper()
	if err := sw.Connect(in, out); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Stateful.String() != "stateful" || Stateless.String() != "stateless" {
		t.Fatal("Mode.String wrong")
	}
}

func TestCollectAndTotals(t *testing.T) {
	r := makeReport(t)
	if len(r.Switches) != 7 {
		t.Fatalf("report covers %d switches, want 7", len(r.Switches))
	}
	if r.TotalUnits() != 4 {
		t.Errorf("TotalUnits = %d, want 4", r.TotalUnits())
	}
	if r.MaxUnits() != 3 {
		t.Errorf("MaxUnits = %d, want 3", r.MaxUnits())
	}
	if r.MaxAlternations() != 1 {
		t.Errorf("MaxAlternations = %d, want 1", r.MaxAlternations())
	}
	if r.Rounds != 4 {
		t.Errorf("Rounds = %d", r.Rounds)
	}
}

func TestCollectMissingSwitch(t *testing.T) {
	tr := topology.MustNew(4)
	for _, switches := range [][]*xbar.Switch{nil, make([]*xbar.Switch, tr.Switches()+1)} {
		r := Collect("x", Stateful, 1, tr, switches)
		if len(r.Switches) != 3 {
			t.Fatalf("want 3 entries, got %d", len(r.Switches))
		}
		if r.TotalUnits() != 0 || r.MaxUnits() != 0 {
			t.Fatal("missing switches must read as zero")
		}
	}
}

func TestHottest(t *testing.T) {
	r := makeReport(t)
	top := r.Hottest(2)
	if len(top) != 2 {
		t.Fatalf("Hottest(2) returned %d", len(top))
	}
	if top[0].Node != 1 || top[0].Units != 3 {
		t.Fatalf("hottest should be root with 3 units: %+v", top[0])
	}
	all := r.Hottest(100)
	if len(all) != 7 {
		t.Fatalf("Hottest(100) must clamp to 7, got %d", len(all))
	}
}

func TestSummaryAndTable(t *testing.T) {
	r := makeReport(t)
	s := r.Summary()
	for _, want := range []string{"padr/stateful", "4 rounds", "total 4 units", "max/switch 3"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary %q missing %q", s, want)
		}
	}
	tab := r.Table(3)
	if !strings.Contains(tab, "u1") || !strings.Contains(tab, "units") {
		t.Errorf("Table output:\n%s", tab)
	}
}

func TestCompare(t *testing.T) {
	r := makeReport(t)
	other := &Report{Algorithm: "baseline", Mode: Stateless, Rounds: 4,
		Switches: []SwitchReport{{Node: 1, Units: 12}}}
	c := r.Compare(other)
	for _, want := range []string{"padr vs baseline", "3 vs 12", "4.00x"} {
		if !strings.Contains(c, want) {
			t.Errorf("Compare %q missing %q", c, want)
		}
	}
	empty := &Report{Algorithm: "idle"}
	if !strings.Contains(empty.Compare(other), "inf") {
		t.Error("zero-unit comparison should report inf")
	}
}

func TestEmptyReport(t *testing.T) {
	r := &Report{Algorithm: "none"}
	if r.TotalUnits() != 0 || r.MaxUnits() != 0 || r.MaxAlternations() != 0 {
		t.Fatal("empty report must read zero")
	}
}
