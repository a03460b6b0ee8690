package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"cst/internal/comm"
	"cst/internal/obs"
)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	pairs := func(seed int64, conn int) []int {
		g := &pairGen{rng: streamRand(seed, conn), pes: defaultPEs}
		var out []int
		for i := 0; i < 200; i++ {
			src, dst := g.next()
			if src == dst || src < 0 || dst < 0 || src >= defaultPEs || dst >= defaultPEs {
				t.Fatalf("bad pair %d->%d", src, dst)
			}
			out = append(out, src, dst)
		}
		return out
	}
	if !reflect.DeepEqual(pairs(7, 0), pairs(7, 0)) {
		t.Fatal("pair stream differs for the same seed")
	}
	if reflect.DeepEqual(pairs(7, 0), pairs(8, 0)) || reflect.DeepEqual(pairs(7, 0), pairs(7, 1)) {
		t.Fatal("pair streams of different seeds or connections coincide")
	}

	sets := func(seed int64) []*comm.Set {
		g := &setGen{rng: streamRand(seed, 1), pes: defaultPEs, size: setSize}
		var out []*comm.Set
		for i := 0; i < 50; i++ {
			s := g.next()
			if err := s.Validate(); err != nil || s.Len() != setSize {
				t.Fatalf("bad set %v: %v", s, err)
			}
			out = append(out, s)
		}
		return out
	}
	if !reflect.DeepEqual(sets(3), sets(3)) {
		t.Fatal("set stream differs for the same seed")
	}
	if reflect.DeepEqual(sets(3), sets(4)) {
		t.Fatal("set streams of different seeds coincide")
	}

	deltas := func(seed int64) [][]comm.Comm {
		g := newDeltaGen(streamRand(seed, 0), deltaPEs, deltaActive, deltaOverlap)
		var out [][]comm.Comm
		for i := 0; i < 50; i++ {
			rm, add := g.next()
			if i > 0 && (len(rm) != g.k || len(add) != g.k) {
				t.Fatalf("delta %d: %d removes, %d adds, want %d each", i, len(rm), len(add), g.k)
			}
			out = append(out, rm, add)
			if s := g.set(deltaPEs); s.Len() != deltaActive || !s.IsWellNested() {
				t.Fatalf("delta %d: session set of %d comms, well nested %v", i, s.Len(), s.IsWellNested())
			}
		}
		return out
	}
	if !reflect.DeepEqual(deltas(5), deltas(5)) {
		t.Fatal("delta stream differs for the same seed")
	}
	if reflect.DeepEqual(deltas(5), deltas(6)) {
		t.Fatal("delta streams of different seeds coincide")
	}
	if sessionID(5, 0)%shards == sessionID(5, 1)%shards {
		t.Fatal("the two delta sessions share a shard")
	}
}

func TestTailQuantileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{100000, 0.999}, {10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0.5}, {1, 0.5},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	lat := make([]int64, 500)
	for i := range lat {
		lat[i] = int64(i+1) * 1000
	}
	st := summarise(lat)
	if st.p99Q != 0.9 || st.p99 != 450 || st.p50 != 250 {
		t.Fatalf("summarise(500 samples) = p50 %g, p99 %g at q %g; want 250, 450 at 0.9", st.p50, st.p99, st.p99Q)
	}
}

// readExpo parses a golden exposition from testdata.
func readExpo(t *testing.T, name string) expo {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := parseExpo(f)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The golden files are two /metrics scrapes of one cstserved (default
// flags plus -wire-addr), taken before and after
//
//	cstload -wire <addr> -clients 2 -pipeline 8 -requests 2000
//	cstload -wire <addr> -set-workload random -set-size 16 -requests 20
func TestMetricsDeltaGolden(t *testing.T) {
	before, after := readExpo(t, "metrics_before.prom"), readExpo(t, "metrics_after.prom")
	d := after.sub(before)
	if got := d[`cst_serve_requests_total{protocol="wire"}`]; got != 2000 {
		t.Fatalf("wire requests delta = %g, want 2000", got)
	}
	if got := d["cst_hybrid_planned_total"]; got != 20 {
		t.Fatalf("planned delta = %g, want 20", got)
	}
	bs := d.buckets("cst_serve_batch_size", "")
	if len(bs) != 11 || !math.IsInf(bs[len(bs)-1].le, 1) {
		t.Fatalf("batch-size buckets: %v", bs)
	}
	if bs[len(bs)-1].count != d["cst_serve_batch_size_count"] {
		t.Fatalf("+Inf bucket %g != count %g", bs[len(bs)-1].count, d["cst_serve_batch_size_count"])
	}
	if q := histQuantile(d.buckets("cst_hybrid_plan_seconds", ""), 0.5); q <= 0 || q > 1 {
		t.Fatalf("plan p50 %g out of range", q)
	}
	if p50 := after[`cst_serve_latency{protocol="wire",quantile="0.5"}`]; p50 <= 0 {
		t.Fatalf("wire p50 summary missing: %g", p50)
	}
	m := layerFromMetrics(workload{kind: kindPair}, &windowProbe{before: before, after: after}, 1e6)
	if m["serve.batch_fill_ratio"] <= 0 || m["serve.batch_fill_ratio"] > 1 || m["serve.flushes_per_kreq"] <= 0 {
		t.Fatalf("serve layer from golden scrapes: %v", m)
	}
}

func TestMetricsParserReadsObsExposition(t *testing.T) {
	reg := obs.New()
	reg.Counter("x_total", "").Add(7)
	reg.Counter(`x_total{protocol="wire"}`, "").Add(3)
	h := reg.Histogram("lat_seconds", "", obs.ExponentialBuckets(1, 2, 4))
	for _, v := range []float64{0.5, 1.5, 3, 3, 100} {
		h.Observe(v)
	}
	s := reg.Summary("q", "", 0)
	for i := 1; i <= 100; i++ {
		s.ObserveTraced(float64(i), obs.TraceID(i))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	e, err := parseExpo(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if e["x_total"] != 7 || e[`x_total{protocol="wire"}`] != 3 {
		t.Fatalf("counters: %v", e)
	}
	bs := e.buckets("lat_seconds", "")
	if got := countAtMost(bs, 4); got != 4 {
		t.Fatalf("observations <= 4: %g, want 4 (%v)", got, bs)
	}
	if got := histQuantile(bs, 0.5); got < 2 || got > 4 {
		t.Fatalf("histogram p50 %g, want within (2, 4]", got)
	}
	if got := e[`q{quantile="0.5"}`]; got != 50 {
		t.Fatalf("summary p50 %g, want 50", got)
	}
}

func TestWindowSlices(t *testing.T) {
	t0 := time.Unix(100, 0)
	w := newWindow(t0, 10, 2*time.Second)
	if w.slices != 5 {
		t.Fatalf("slices = %d, want 5", w.slices)
	}
	for _, tc := range []struct {
		at   time.Duration
		want int
	}{{-time.Nanosecond, -1}, {0, 0}, {1999 * time.Millisecond, 0}, {2 * time.Second, 1}, {9999 * time.Millisecond, 4}, {10 * time.Second, -1}} {
		if got := w.slice(t0.Add(tc.at)); got != tc.want {
			t.Errorf("slice(+%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
	if !w.sliceStart(5).Equal(w.end) || !w.sliceStart(0).Equal(w.start) {
		t.Fatal("slice starts do not span the window")
	}
	if newWindow(t0, 1, 2*time.Second).slices != 1 {
		t.Fatal("a window shorter than a slice is one slice")
	}
	if got := best([]float64{5, 1, 9, 3}, false); got != 1 {
		t.Fatalf("best (lower better) = %g, want 1", got)
	}
	if got := best([]float64{5, 1, 9, 3}, true); got != 9 {
		t.Fatalf("best (higher better) = %g, want 9", got)
	}
}

func TestSelfTimeCoverage(t *testing.T) {
	if got := covered([][2]int64{{5, 10}, {0, 2}, {1, 3}, {9, 12}}); got != 10 {
		t.Fatalf("covered = %d, want 10", got)
	}
	r := newRecorder()
	root := r.add("root", 0, r.origin, r.origin.Add(100), 0)
	r.add("child", root, r.origin.Add(10), r.origin.Add(40), 1)
	r.add("child", root, r.origin.Add(30), r.origin.Add(50), 1)
	for _, st := range r.selfTimes() {
		if st.name == "root" && (st.total != 100 || st.self != 60) {
			t.Fatalf("root total/self = %d/%d, want 100/60", st.total, st.self)
		}
	}
}

func TestSetHashOrderIndependent(t *testing.T) {
	a := comm.NewSet(64, comm.Comm{Src: 1, Dst: 9}, comm.Comm{Src: 20, Dst: 3}, comm.Comm{Src: 40, Dst: 41})
	b := comm.NewSet(64, comm.Comm{Src: 40, Dst: 41}, comm.Comm{Src: 1, Dst: 9}, comm.Comm{Src: 20, Dst: 3})
	c := comm.NewSet(64, comm.Comm{Src: 1, Dst: 9}, comm.Comm{Src: 3, Dst: 20}, comm.Comm{Src: 40, Dst: 41})
	if setHash(a) != setHash(b) || setHash(a) == setHash(c) {
		t.Fatal("set hash must ignore order and respect orientation")
	}
	seen := map[uint64]bool{}
	g := &setGen{rng: streamRand(1, 0), pes: defaultPEs, size: setSize}
	for i := 0; i < 20000; i++ {
		h := setHash(g.next())
		if seen[h] {
			t.Fatalf("random set %d repeats an earlier hash", i)
		}
		seen[h] = true
	}
}

// BENCHMARK.json must describe exactly what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, here %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nhere           %v", kind, got, want)
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end-to-end", e2e, endToEnd)
	check("per-layer", layer, perLayer)
}
