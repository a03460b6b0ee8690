package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"cst/internal/comm"
	"cst/internal/obs"
	"cst/internal/padr"
	"cst/internal/topology"
)

func TestRejectsBadInputs(t *testing.T) {
	tr := topology.MustNew(8)
	if _, err := Run(tr, comm.MustParse("(())")); err == nil {
		t.Error("size mismatch: want error")
	}
	crossing := comm.NewSet(8, comm.Comm{Src: 0, Dst: 2}, comm.Comm{Src: 1, Dst: 3})
	if _, err := Run(tr, crossing); err == nil {
		t.Error("crossing set: want error")
	}
	invalid := comm.NewSet(8, comm.Comm{Src: 0, Dst: 99})
	if _, err := Run(tr, invalid); err == nil {
		t.Error("invalid set: want error")
	}
}

func TestEmptySet(t *testing.T) {
	tr := topology.MustNew(8)
	res, err := Run(tr, comm.NewSet(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.Report.TotalUnits() != 0 {
		t.Fatalf("empty set: %d rounds, %d units", res.Rounds, res.Report.TotalUnits())
	}
	if res.Goroutines != 15 {
		t.Fatalf("goroutines = %d, want 15", res.Goroutines)
	}
	if res.Phase1Messages != 14 {
		t.Fatalf("phase1 messages = %d, want 14", res.Phase1Messages)
	}
}

func TestSimpleSchedules(t *testing.T) {
	for _, expr := range []string{"(.)", "(())", "(()())..", "(((())))"} {
		s := comm.MustParse(expr)
		tr := topology.MustNew(s.N)
		res, err := Run(tr, s)
		if err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		if err := res.Schedule.VerifyOptimal(tr); err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		// Every round broadcasts one word per link: 2N-2 words.
		if want := res.Rounds * (2*s.N - 2); res.Phase2Messages != want {
			t.Fatalf("%q: phase2 messages = %d, want %d", expr, res.Phase2Messages, want)
		}
	}
}

// The concurrent simulation must agree with the sequential engine exactly:
// same rounds, same per-round communication sets, same power ledger.
func TestEquivalenceWithSequentialEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 80; trial++ {
		n := 1 << (2 + rng.Intn(5)) // 4..64
		s, err := comm.RandomWellNested(rng, n, rng.Intn(n/2+1))
		if err != nil {
			t.Fatal(err)
		}
		tr := topology.MustNew(n)

		seqEng, err := padr.New(tr, s)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := seqEng.Run()
		if err != nil {
			t.Fatalf("seq %s: %v", s, err)
		}
		conc, err := Run(tr, s)
		if err != nil {
			t.Fatalf("conc %s: %v", s, err)
		}

		if seq.Rounds != conc.Rounds {
			t.Fatalf("%s: rounds %d vs %d", s, seq.Rounds, conc.Rounds)
		}
		for r := range seq.Schedule.Rounds {
			a := commSet(seq.Schedule.Rounds[r])
			b := commSet(conc.Schedule.Rounds[r])
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s round %d: %v vs %v", s, r, a, b)
			}
		}
		if seq.Report.TotalUnits() != conc.Report.TotalUnits() ||
			seq.Report.MaxUnits() != conc.Report.MaxUnits() ||
			seq.Report.MaxAlternations() != conc.Report.MaxAlternations() {
			t.Fatalf("%s: power ledgers differ: %s vs %s", s, seq.Report.Summary(), conc.Report.Summary())
		}
	}
}

func commSet(cs []comm.Comm) map[comm.Comm]bool {
	m := make(map[comm.Comm]bool, len(cs))
	for _, c := range cs {
		m[c] = true
	}
	return m
}

// Per-round telemetry must be populated on every run, instrumented or not:
// one latency and one message count per round, message counts summing to
// the Phase 2 total.
func TestRoundTelemetry(t *testing.T) {
	s := comm.MustParse("(((())))")
	tr := topology.MustNew(s.N)
	res, err := Run(tr, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundLatencies) != res.Rounds {
		t.Fatalf("RoundLatencies has %d entries, want %d", len(res.RoundLatencies), res.Rounds)
	}
	if len(res.RoundMessages) != res.Rounds {
		t.Fatalf("RoundMessages has %d entries, want %d", len(res.RoundMessages), res.Rounds)
	}
	sum := 0
	for r, m := range res.RoundMessages {
		if m != 2*s.N-2 {
			t.Fatalf("round %d carried %d words, want %d (one per link)", r, m, 2*s.N-2)
		}
		sum += m
	}
	if sum != res.Phase2Messages {
		t.Fatalf("RoundMessages sums to %d, Phase2Messages = %d", sum, res.Phase2Messages)
	}
	for r, d := range res.RoundLatencies {
		if d <= 0 {
			t.Fatalf("round %d latency = %v, want > 0", r, d)
		}
	}
}

// An instrumented run must publish consistent cst_sim_* series and JSONL
// events; a second uninstrumented run must leave the registry untouched.
func TestInstrumentedRunMetrics(t *testing.T) {
	s := comm.MustParse("(()())..")
	tr := topology.MustNew(s.N)
	reg := obs.New()
	tracer := obs.NewTracer(nil, 4096)
	res, err := Run(tr, s, WithRegistry(reg), WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["cst_sim_rounds_total"]; got != int64(res.Rounds) {
		t.Fatalf("rounds counter = %d, want %d", got, res.Rounds)
	}
	if got := snap.Counters["cst_sim_phase1_messages_total"]; got != int64(res.Phase1Messages) {
		t.Fatalf("phase1 counter = %d, want %d", got, res.Phase1Messages)
	}
	if got := snap.Counters["cst_sim_phase2_messages_total"]; got != int64(res.Phase2Messages) {
		t.Fatalf("phase2 counter = %d, want %d", got, res.Phase2Messages)
	}
	if got := snap.Counters["cst_sim_comms_scheduled_total"]; got != int64(s.Len()) {
		t.Fatalf("comms counter = %d, want %d", got, s.Len())
	}
	if got := snap.Counters["cst_sim_power_units_total"]; got != int64(res.Report.TotalUnits()) {
		t.Fatalf("units counter = %d, want %d", got, res.Report.TotalUnits())
	}
	if got := snap.Gauges["cst_sim_goroutines"]; got != 0 {
		t.Fatalf("goroutine gauge = %d after shutdown, want 0", got)
	}
	hist := snap.Histograms["cst_sim_round_latency_seconds"]
	if hist.Count != int64(res.Rounds) {
		t.Fatalf("latency histogram has %d samples, want %d", hist.Count, res.Rounds)
	}
	if tracer.Events() == 0 {
		t.Fatal("tracer saw no events")
	}

	if _, err := Run(tr, s); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cst_sim_runs_total", "").Value(); got != 1 {
		t.Fatalf("uninstrumented run leaked into the registry: runs = %d, want 1", got)
	}
}

// A failing run must tick the error counter rather than the success series.
func TestInstrumentedRunError(t *testing.T) {
	tr := topology.MustNew(8)
	reg := obs.New()
	if _, err := Run(tr, comm.MustParse("(())"), WithRegistry(reg)); err == nil {
		t.Fatal("size mismatch: want error")
	}
	if got := reg.Counter("cst_sim_errors_total", "").Value(); got != 1 {
		t.Fatalf("errors counter = %d, want 1", got)
	}
}

func TestLargerConcurrentRun(t *testing.T) {
	tr := topology.MustNew(512)
	rng := rand.New(rand.NewSource(9))
	s, err := comm.RandomWellNested(rng, 512, 200)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.VerifyOptimal(tr); err != nil {
		t.Fatal(err)
	}
	if res.Goroutines != 1023 {
		t.Fatalf("goroutines = %d, want 1023", res.Goroutines)
	}
	if res.Report.MaxUnits() > 6 {
		t.Fatalf("max units = %d, want O(1)", res.Report.MaxUnits())
	}
}
