package serve

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cst/internal/audit"
	"cst/internal/comm"
	"cst/internal/hybrid"
	"cst/internal/obs"
)

// seededSets draws k of servebench's set-random shape: 16-comm two-sided
// sets on N=64.
func seededSets(t *testing.T, k int) []*comm.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	sets := make([]*comm.Set, k)
	for i := range sets {
		s, err := comm.RandomTwoSided(rng, 64, 16)
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = s
	}
	return sets
}

// An unsampled plan costs what an untraced one does: with cstserved's
// default tracer (sampling 0, ring only) the planner hands the engines no
// tracer, so no event is encoded and no switch is snapshotted.
func TestUnsampledPlanAllocs(t *testing.T) {
	s := seededSets(t, 1)[0]
	allocs := func(tr *obs.Tracer) float64 {
		pl := NewPlanner(PlannerConfig{Tracer: tr})
		pl.Plan(s, protoWire, false) // caches the tree
		return testing.AllocsPerRun(20, func() {
			if res := pl.Plan(s, protoWire, false); res.Status != http.StatusOK {
				t.Fatalf("plan: %+v", res)
			}
		})
	}
	untraced := allocs(nil)
	tr := obs.NewTracer(nil, 4096)
	unsampled := allocs(tr)
	if unsampled != untraced {
		t.Errorf("unsampled plan: %.0f allocations, untraced %.0f", unsampled, untraced)
	}
	// The ceiling leaves headroom over a plan whose first-fit meets the
	// width and so builds no conflict graph (50 allocations on this set);
	// splitting the set by orientation and peeling each half cost 242.
	if untraced > 100 {
		t.Errorf("untraced plan: %.0f allocations, want <= 100", untraced)
	}
	if n := tr.Events(); n != 0 {
		t.Errorf("unsampled plans put %d events in the ring", n)
	}
}

// A tracer that streams still gets every plan's engine events at sampling
// 0: an auditor on the sink bills every plan (cstserved -audit), and a
// writer receives the hybrid events (-trace-out).
func TestUnsampledPlanEventsReachConsumers(t *testing.T) {
	sets := seededSets(t, 5)

	aud := audit.New(audit.Config{})
	tr := obs.NewTracer(nil, 4096)
	done := 0
	tr.SetSink(func(e obs.Event) {
		if e.Type == "run.done" && e.Engine == hybrid.Engine {
			done++
		}
		aud.Observe(e)
	})
	pl := NewPlanner(PlannerConfig{Tracer: tr})
	billed := 0
	for _, s := range sets {
		res := pl.Plan(s, protoWire, false)
		if res.Status != http.StatusOK {
			t.Fatalf("plan: %+v", res)
		}
		billed += int(res.Units)
	}
	if done != len(sets) {
		t.Fatalf("sink saw %d hybrid run.done events, want one per plan (%d)", done, len(sets))
	}
	runs := aud.Runs()
	if len(runs) != len(sets) {
		t.Fatalf("auditor saw %d runs, want one per plan (%d)", len(runs), len(sets))
	}
	ledger := 0
	for _, r := range runs {
		if r.Engine != hybrid.Engine {
			t.Errorf("audited engine %q", r.Engine)
		}
		if len(r.Violations) != 0 {
			t.Errorf("violations: %v", r.Violations)
		}
		ledger += r.Ledger.TotalUnits()
	}
	if ledger != billed {
		t.Errorf("audit ledger %d units, plans billed %d", ledger, billed)
	}

	var buf bytes.Buffer
	pl = NewPlanner(PlannerConfig{Tracer: obs.NewTracer(&buf, 4096)})
	pl.Plan(sets[0], protoWire, false)
	for _, want := range []string{`"type":"run.start"`, `"type":"switch.config"`, `"type":"run.done"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace writer missing %s from the hybrid run:\n%.300s", want, buf.String())
		}
	}
}

// The planner's tree cache is on the default /metrics: one cached tree per
// planned n.
func TestPlannerTreeCacheGauge(t *testing.T) {
	reg := obs.New()
	pl := NewPlanner(PlannerConfig{Registry: reg})
	srv := httptest.NewServer(Handler(nil, pl, reg, nil))
	defer srv.Close()
	get := func() string {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if m := get(); !strings.Contains(m, "cst_hybrid_cached_trees 0\n") {
		t.Fatalf("/metrics before any plan lacks cst_hybrid_cached_trees 0:\n%s", m)
	}
	for _, body := range []string{
		`{"n":16,"comms":[{"src":0,"dst":8},{"src":12,"dst":4}]}`,
		`{"n":64,"comms":[{"src":0,"dst":40}]}`,
		`{"n":16,"comms":[{"src":1,"dst":2}]}`,
	} {
		resp, err := http.Post(srv.URL+"/schedule-set", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /schedule-set %s = %d", body, resp.StatusCode)
		}
	}
	if m := get(); !strings.Contains(m, "cst_hybrid_cached_trees 2\n") {
		t.Errorf("after plans at n=16 and n=64, /metrics lacks cst_hybrid_cached_trees 2:\n%s", m)
	}
}
