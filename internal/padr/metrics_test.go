package padr

import (
	"testing"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/obs"
	"cst/internal/topology"
)

// An instrumented run must publish cst_padr_* series that agree with the
// engine's own Result statistics, and trace a consistent event stream.
func TestInstrumentedRun(t *testing.T) {
	s := comm.MustParse("(()())..")
	tr := topology.MustNew(s.N)
	reg := obs.New()
	tracer := obs.NewTracer(nil, 4096)
	e, err := New(tr, s, WithRegistry(reg), WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"cst_padr_runs_total":                1,
		"cst_padr_errors_total":              0,
		"cst_padr_rounds_total":              int64(res.Rounds),
		"cst_padr_comms_scheduled_total":     int64(s.Len()),
		"cst_padr_phase1_words_total":        int64(res.UpWords),
		"cst_padr_phase2_words_total":        int64(res.DownWords),
		"cst_padr_phase2_active_words_total": int64(res.ActiveDownWords),
		"cst_padr_power_units_total":         int64(res.Report.TotalUnits()),
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["cst_padr_width"]; got != int64(res.Width) {
		t.Errorf("width gauge = %d, want %d", got, res.Width)
	}
	hist := snap.Histograms["cst_padr_round_latency_seconds"]
	if hist.Count != int64(res.Rounds) {
		t.Errorf("round latency histogram has %d samples, want %d", hist.Count, res.Rounds)
	}
	if tracer.Events() == 0 {
		t.Error("tracer saw no events")
	}

	// A reused engine must fail and tick the error counter.
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run on a single-use engine: want error")
	}
	if got := reg.Counter("cst_padr_errors_total", "").Value(); got != 1 {
		t.Errorf("errors counter = %d, want 1 after reuse", got)
	}
	// Reuse is rejected before a run starts; runs_total must not grow.
	if got := reg.Counter("cst_padr_runs_total", "").Value(); got != 1 {
		t.Errorf("runs counter = %d, want 1", got)
	}
}

// On shared crossbars the unit counter must bill each run its own delta,
// not the cumulative meter totals.
func TestInstrumentedSharedCrossbars(t *testing.T) {
	s := comm.MustParse("(())")
	tr := topology.MustNew(s.N)
	switches := circuit.NewSwitches(tr)
	reg := obs.New()

	run := func() int {
		e, err := New(tr, s, WithRegistry(reg), WithCrossbars(switches))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.TotalUnits()
	}
	first := run()
	second := run() // cumulative meters: includes the first run's units
	delta := second - first
	want := int64(first + delta)
	if got := reg.Counter("cst_padr_power_units_total", "").Value(); got != want {
		t.Fatalf("units counter = %d, want %d (first %d + delta %d)", got, want, first, delta)
	}
}

// An uninstrumented engine must not require a registry: nil handles no-op.
func TestUninstrumentedRunStillWorks(t *testing.T) {
	s := comm.MustParse("(((())))")
	tr := topology.MustNew(s.N)
	e, err := New(tr, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
