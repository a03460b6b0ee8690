package serve

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cst/internal/audit"
	"cst/internal/comm"
	"cst/internal/hybrid"
	"cst/internal/obs"
	"cst/internal/topology"
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
	// The ceiling is loose: this set's first-fit meets its width, so it
	// builds no conflict graph and plans in 0 allocations on a warm
	// planner, which TestPlannerAllocFree pins; splitting the set by
	// orientation and peeling each half cost 242.
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

// A warm planner plans a set whose first-fit meets its width without a
// single allocation on the wire path: the tree is cached, and the hybrid
// scheduler's buffers, the plan and its power report are reused. Only the
// conflict graph and the Exact search allocate, and none of these sets
// needs them: a seeded set-random set whose first-fit meets its width, a
// well-nested set at N=64 and its mirror image (the paper's inputs, which
// first-fit plans in their width), and one communication at MaxPlanPEs.
func TestPlannerAllocFree(t *testing.T) {
	var sets []*comm.Set
	tree := topology.MustNew(64)
	for _, c := range seededSets(t, 32) {
		plan, err := hybrid.Schedule(tree, c)
		if err != nil {
			t.Fatal(err)
		}
		if plan.FirstFitRounds == plan.Width {
			sets = append(sets, c)
			break
		}
	}
	if len(sets) == 0 {
		t.Fatal("no seeded set whose first-fit meets its width")
	}
	nested, err := comm.RandomWellNested(rand.New(rand.NewSource(64)), 64, 24)
	if err != nil {
		t.Fatal(err)
	}
	sets = append(sets, nested, nested.Mirror(), comm.NewSet(MaxPlanPEs, comm.Comm{Src: 0, Dst: MaxPlanPEs - 1}))
	pl := NewPlanner(PlannerConfig{})
	want := make([]SetResult, len(sets))
	for i, s := range sets {
		if want[i] = pl.Plan(s, protoWire, false); want[i].Status != http.StatusOK {
			t.Fatalf("plan: %+v", want[i])
		}
	}
	for i, s := range sets {
		allocs := testing.AllocsPerRun(100, func() {
			if res := pl.Plan(s, protoWire, false); res.Status != want[i].Status || res.Units != want[i].Units || res.Rounds != want[i].Rounds {
				t.Fatalf("plan %+v, want %+v", res, want[i])
			}
		})
		if allocs != 0 {
			t.Errorf("warm wire-form plan of %d comms at n=%d: %.1f allocations, want 0", s.Len(), s.N, allocs)
		}
	}
}

// maxSets returns the two maximum-size sets the retention test plans at n:
// min(MaxPlanComms, n/2) circuits rightward through the root, one round
// each, the most rounds and so the largest occupancy table a set at n
// can need, and a random two-sided set of the same size.
func maxSets(t *testing.T, rng *rand.Rand, n int) []*comm.Set {
	t.Helper()
	m := min(MaxPlanComms, n/2)
	root := &comm.Set{N: n}
	for i := 0; i < m; i++ {
		root.Comms = append(root.Comms, comm.Comm{Src: i, Dst: n/2 + i})
	}
	random, err := comm.RandomTwoSided(rng, n, m)
	if err != nil {
		t.Fatal(err)
	}
	return []*comm.Set{root, random}
}

// retained is the live heap after a full collection.
func retained() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// What a planner keeps between plans is the scratch of the largest plan it
// has served, not a sum over the sizes it has seen: maximum-size sets at
// every n up to MaxPlanPEs, then set-random-sized sets, leave no more
// behind than the maximum-size plans at the cap do after empty plans at
// every n (so that both hold the same cached trees). That worst case is
// the figure MaxPlanPEs's comment states.
func TestPlannerRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var sets [][]*comm.Set
	for n := 2; n <= MaxPlanPEs; n *= 2 {
		sets = append(sets, maxSets(t, rng, n))
	}
	plan := func(pl *Planner, s *comm.Set) {
		if res := pl.Plan(s, protoWire, false); res.Status != http.StatusOK {
			t.Fatalf("n=%d, %d comms: %+v", s.N, s.Len(), res)
		}
	}

	base := retained()
	largest := NewPlanner(PlannerConfig{})
	for n := 2; n <= MaxPlanPEs; n *= 2 {
		plan(largest, comm.NewSet(n))
	}
	for _, s := range sets[len(sets)-1] {
		plan(largest, s)
	}
	one := retained() - base
	runtime.KeepAlive(largest)

	base = retained()
	all := NewPlanner(PlannerConfig{})
	for _, at := range sets {
		for _, s := range at {
			plan(all, s)
		}
	}
	for _, s := range seededSets(t, 64) {
		plan(all, s)
	}
	sum := retained() - base
	runtime.KeepAlive(all)

	t.Logf("retained with the trees: %.2f MiB after the largest plans, %.2f MiB after plans at every n",
		float64(one)/(1<<20), float64(sum)/(1<<20))
	if sum > one+one/100 {
		t.Errorf("after plans at every n the planner retains %d bytes, after the largest plans %d", sum, one)
	}
	if one > 13<<20 {
		t.Errorf("after the largest plans the planner retains %.2f MiB, want at most 13", float64(one)/(1<<20))
	}
}

// Plans from several goroutines at once each get their own answer: the
// planner copies a plan out of its one scheduler, round by round when the
// caller asks for the schedule, before another plan may reuse it. Each
// answer must equal a one-shot plan of the same set (run with -race).
func TestPlannerConcurrentPlans(t *testing.T) {
	sets := seededSets(t, 64)
	tree := topology.MustNew(64)
	want := make([]SetResult, len(sets))
	for i, s := range sets {
		plan, err := hybrid.Schedule(tree, s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = SetResult{Status: http.StatusOK, Rounds: plan.Rounds, Units: int64(plan.Report.TotalUnits())}
		for _, round := range plan.Schedule.Rounds {
			var rs []SetComm
			for _, c := range round {
				rs = append(rs, SetComm{Src: c.Src, Dst: c.Dst})
			}
			want[i].Schedule = append(want[i].Schedule, rs)
		}
	}
	pl := NewPlanner(PlannerConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(sets); k++ {
				i := (k*7 + g*13) % len(sets)
				res := pl.Plan(sets[i], protoHTTP, true)
				if res.Status != want[i].Status || res.Rounds != want[i].Rounds || res.Units != want[i].Units ||
					!reflect.DeepEqual(res.Schedule, want[i].Schedule) {
					t.Errorf("set %d: plan %+v, want %+v", i, res, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
