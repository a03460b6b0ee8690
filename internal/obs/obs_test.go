package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x_total", "other") != c {
		t.Fatal("second lookup must return the same counter")
	}
	g := r.Gauge("g", "help")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	var tr *Tracer
	tr.Emit(Event{Type: "x"})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 ||
		h.Quantile(0.5) != 0 || tr.Events() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// The disabled path must not allocate: a nil registry hands out nil
// handles and every operation on them is a nil check. This is the
// benchmark guard the tentpole promises (see also bench_test.go at the
// repository root).
func TestDisabledPathZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", nil)
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(9)
		h.Observe(0.5)
		tr.Emit(Event{Type: "round.start", Round: 3})
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v%10) + 0.5) // uniform over buckets 1..10
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if got := h.Quantile(0.5); got < 4 || got > 6 {
		t.Fatalf("p50 = %g, want ~5", got)
	}
	if got := h.Quantile(1); got > 10 {
		t.Fatalf("p100 = %g, want <= 10", got)
	}
	if got := h.Quantile(0); got < 0 || got > 1 {
		t.Fatalf("p0 = %g, want within first bucket", got)
	}
	// Overflow samples land in +Inf and quantiles clamp to the top bound.
	h.Observe(1e9)
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("overflow quantile = %g, want 10 (top bound)", got)
	}
	mean := h.Sum() / float64(h.Count())
	if math.IsNaN(mean) || mean <= 0 {
		t.Fatalf("bad mean %g", mean)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "", ExponentialBuckets(1e-6, 2, 12))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1e-5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8000*1e-5) > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.Sum(), 8000*1e-5)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("cst_test_rounds_total", "rounds executed").Add(16)
	r.Gauge("cst_test_width", "last width").Set(4)
	h := r.Histogram("cst_test_latency_seconds", "round latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP cst_test_rounds_total rounds executed",
		"# TYPE cst_test_rounds_total counter",
		"cst_test_rounds_total 16",
		"# TYPE cst_test_width gauge",
		"cst_test_width 4",
		"# TYPE cst_test_latency_seconds histogram",
		`cst_test_latency_seconds_bucket{le="0.1"} 1`,
		`cst_test_latency_seconds_bucket{le="1"} 2`,
		`cst_test_latency_seconds_bucket{le="+Inf"} 3`,
		"cst_test_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotSub(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []float64{1, 2})
	c.Add(5)
	h.Observe(0.5)
	before := r.Snapshot()
	c.Add(3)
	h.Observe(1.5)
	h.Observe(1.5)
	delta := r.Snapshot().Sub(before)
	if got := delta.Counters["c_total"]; got != 3 {
		t.Fatalf("counter delta = %d, want 3", got)
	}
	hs := delta.Histograms["h"]
	if hs.Count != 2 || hs.Counts[1] != 2 || hs.Counts[0] != 0 {
		t.Fatalf("histogram delta = %+v, want 2 samples in bucket 1", hs)
	}
	if math.Abs(hs.Sum-3.0) > 1e-9 {
		t.Fatalf("sum delta = %g, want 3", hs.Sum)
	}
	if got := hs.Quantile(0.5); got < 1 || got > 2 {
		t.Fatalf("delta p50 = %g, want in (1,2]", got)
	}
}

func TestConcurrentRegistryAccess(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("shared_total", "").Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h", "", nil).Observe(1e-4)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
}
