package online

import (
	"math/rand"
	"testing"

	"cst/internal/comm"
	"cst/internal/obs"
)

// An instrumented online run must publish cst_online_* series agreeing
// with Stats, and thread the registry into the inner padr engines.
func TestInstrumentedOnlineRun(t *testing.T) {
	reg := obs.New()
	tracer := obs.NewTracer(nil, 4096)
	sim, err := New(16, WithRegistry(reg), WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	accepted := 0
	for i := 0; i < 6; i++ {
		accepted += sim.SubmitRandom(rng, 4)
		sim.Tick()
		if _, err := sim.Dispatch(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Drain(); err != nil {
		t.Fatal(err)
	}
	stats := sim.Finish()

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"cst_online_requests_total":    int64(accepted),
		"cst_online_completed_total":   int64(len(stats.Completed)),
		"cst_online_batches_total":     int64(stats.Batches),
		"cst_online_busy_rounds_total": int64(stats.Rounds),
		"cst_online_idle_rounds_total": int64(stats.IdleRounds),
		"cst_online_errors_total":      0,
		// The inner engines bill each run's units on the shared crossbars,
		// so their sum is the fabric's whole ledger.
		"cst_padr_power_units_total": int64(stats.Report.TotalUnits()),
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["cst_online_queue_len"]; got != 0 {
		t.Errorf("queue gauge = %d after drain, want 0", got)
	}
	lat := snap.Histograms["cst_online_request_latency_rounds"]
	if lat.Count != int64(len(stats.Completed)) {
		t.Errorf("latency histogram has %d samples, want %d", lat.Count, len(stats.Completed))
	}
	// The registry threads through to the inner engines: one padr run per
	// batch.
	if got := snap.Counters["cst_padr_runs_total"]; got != int64(stats.Batches) {
		t.Errorf("inner cst_padr_runs_total = %d, want %d", got, stats.Batches)
	}
	if tracer.Events() == 0 {
		t.Error("tracer saw no events")
	}
}

// A rejected request must tick the rejection counter, not the accept one.
func TestInstrumentedRejection(t *testing.T) {
	reg := obs.New()
	sim, err := New(8, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Submit(comm.Comm{Src: 0, Dst: 3}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Submit(comm.Comm{Src: 3, Dst: 5}); err == nil {
		t.Fatal("busy endpoint: want error")
	}
	if err := sim.Submit(comm.Comm{Src: 2, Dst: 2}); err == nil {
		t.Fatal("self-loop: want error")
	}
	if got := reg.Counter("cst_online_requests_total", "").Value(); got != 1 {
		t.Errorf("requests = %d, want 1", got)
	}
	if got := reg.Counter("cst_online_rejected_total", "").Value(); got != 2 {
		t.Errorf("rejected = %d, want 2", got)
	}
}
