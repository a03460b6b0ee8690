// Package obs is the unified observability layer for the CST engines: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms with quantile estimation) plus a structured JSONL event tracer
// and an HTTP exposition surface (Prometheus text /metrics, /healthz, trace
// download, net/http/pprof).
//
// Design constraints, in order:
//
//  1. The hot path must stay hot. Every metric is a single atomic word (or
//     a fixed array of them); there are no labels, no maps and no locks on
//     the update path. Engines resolve metric handles once, up front, and
//     bang on atomics per event.
//  2. Disabled must be free. Every method is nil-safe: a nil *Registry
//     hands out nil handles and a nil *Counter/*Gauge/*Histogram/*Tracer
//     no-ops without allocating, so uninstrumented runs pay only a
//     predictable-branch nil check. bench_test.go enforces zero
//     allocations on this path.
//  3. No dependencies. The Prometheus text format is simple enough to emit
//     by hand; pulling a client library for three metric kinds is not
//     worth a go.mod entry.
//
// Metric names follow the Prometheus conventions used throughout
// OBSERVABILITY.md: cst_<engine>_<what>_<unit-or-total>.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotone; this is not
// enforced so engines can fold pre-aggregated deltas in).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; a nil Gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with cumulative Prometheus
// semantics and crude quantile estimation by linear interpolation inside
// the winning bucket. A nil Histogram no-ops. All updates are atomic; a
// concurrent reader may observe a sum/count pair mid-update, which is the
// standard (and accepted) Prometheus client behaviour.
type Histogram struct {
	bounds []float64      // upper bounds, strictly increasing; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // math.Float64bits of the running sum
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search beats linear scan only past ~30 buckets; engine
	// histograms are ~20, so scan.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the bucket holding the q-th sample; the open +Inf bucket reports
// its lower bound. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.snapshot().Quantile(q)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ExponentialBuckets returns n strictly increasing bucket bounds starting
// at start and growing by factor — the standard way to cover several
// latency decades with a fixed-size histogram.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefLatencyBuckets covers 1µs..~8.5s in powers of two — wide enough for a
// Phase 2 wave on a laptop and for a congested sweep under -race.
var DefLatencyBuckets = ExponentialBuckets(1e-6, 2, 24)

// metric is one registered series: a family name plus an optional fixed
// label set. Series are registered with the labels embedded in the name —
// `cst_serve_requests_total{protocol="wire"}` — which keeps the hot path
// exactly as label-free as before: a labeled series is still one resolved
// handle banging on one atomic word; the label cost is paid once at
// registration and once per exposition line.
type metric struct {
	name   string // full registration key, labels included
	family string // name with any {label} block stripped
	labels string // `k="v",...` without braces; "" for unlabeled
	help   string
	kind   string // "counter", "gauge", "histogram", "summary"
	c      *Counter
	g      *Gauge
	h      *Histogram
	s      *Summary
}

// splitName separates a registration name into its family and label block.
// Anything that is not exactly `family{labels}` is treated as an unlabeled
// family — the registry's callers are in-tree and get this right.
func splitName(name string) (family, labels string) {
	i := len(name)
	for j := 0; j < len(name); j++ {
		if name[j] == '{' {
			i = j
			break
		}
	}
	if i == len(name) || name[len(name)-1] != '}' {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// series renders the exposition name for a family (optionally suffixed,
// e.g. "_sum") carrying this metric's label set.
func (m *metric) series(suffix string) string {
	if m.labels == "" {
		return m.family + suffix
	}
	return m.family + suffix + "{" + m.labels + "}"
}

// seriesWith renders an exposition name merging the metric's labels with
// one extra label (le for histogram buckets, quantile for summaries); the
// extra label goes last, as Prometheus clients conventionally emit it.
func (m *metric) seriesWith(suffix, key, val string) string {
	if m.labels == "" {
		return fmt.Sprintf("%s%s{%s=%q}", m.family, suffix, key, val)
	}
	return fmt.Sprintf("%s%s{%s,%s=%q}", m.family, suffix, m.labels, key, val)
}

// Registry is a named collection of metrics. A nil *Registry is the
// disabled mode: every lookup returns a nil handle whose methods no-op.
// Lookups take a mutex (resolve handles once, outside hot loops); updates
// on the returned handles are lock-free.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// Counter returns (registering on first use) the named counter. The help
// string is kept from the first registration. Nil registry → nil handle.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m.c
	}
	m := newMetric(name, help, "counter")
	m.c = &Counter{}
	r.metrics[name] = m
	return m.c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m.g
	}
	m := newMetric(name, help, "gauge")
	m.g = &Gauge{}
	r.metrics[name] = m
	return m.g
}

// Histogram returns (registering on first use) the named histogram. The
// bounds are kept from the first registration; pass nil for
// DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m.h
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly increasing", name))
		}
	}
	m := newMetric(name, help, "histogram")
	m.h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.metrics[name] = m
	return m.h
}

// newMetric builds a series entry, splitting any embedded label block.
func newMetric(name, help, kind string) *metric {
	family, labels := splitName(name)
	return &metric{name: name, family: family, labels: labels, help: help, kind: kind}
}

// sorted returns the registered series ordered by (family, labels): raw
// name order would interleave families, because '_' sorts before '{' and
// a labeled series of one family would split another family's block.
// Within a family the unlabeled series (labels == "") leads.
func (r *Registry) sorted() []*metric {
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// WritePrometheus emits the registry in the Prometheus text exposition
// format (version 0.0.4). A nil registry emits nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := r.sorted()
	r.mu.Unlock()
	prevFamily := ""
	for _, m := range ms {
		// HELP/TYPE frame each family once; the labeled series of one
		// family share it (Prometheus rejects repeated TYPE lines).
		if m.family != prevFamily {
			prevFamily = m.family
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.family, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.family, m.kind); err != nil {
				return err
			}
		}
		switch m.kind {
		case "counter":
			if _, err := fmt.Fprintf(w, "%s %d\n", m.series(""), m.c.Value()); err != nil {
				return err
			}
		case "gauge":
			if _, err := fmt.Fprintf(w, "%s %d\n", m.series(""), m.g.Value()); err != nil {
				return err
			}
		case "histogram":
			s := m.h.snapshot()
			cum := int64(0)
			for i, b := range s.Bounds {
				cum += s.Counts[i]
				if _, err := fmt.Fprintf(w, "%s %d\n", m.seriesWith("_bucket", "le", formatFloat(b)), cum); err != nil {
					return err
				}
			}
			cum += s.Counts[len(s.Bounds)]
			if _, err := fmt.Fprintf(w, "%s %d\n", m.seriesWith("_bucket", "le", "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %g\n%s %d\n", m.series("_sum"), s.Sum, m.series("_count"), s.Count); err != nil {
				return err
			}
		case "summary":
			if err := writeSummary(w, m, m.s); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a bucket bound the way Prometheus clients do.
func formatFloat(f float64) string { return fmt.Sprintf("%g", f) }

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// the +Inf bucket.
	Bounds []float64
	// Counts are per-bucket (non-cumulative) sample counts.
	Counts []int64
	// Count and Sum aggregate all samples.
	Count int64
	Sum   float64
}

// Quantile estimates the q-th quantile from the snapshot; see
// Histogram.Quantile.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// Open-ended bucket: report its lower bound.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (rank - float64(cum)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot is a point-in-time copy of a whole registry, used for
// per-experiment deltas (cstbench) and summary tables.
type Snapshot struct {
	// Counters and Gauges map metric name to value.
	Counters map[string]int64
	Gauges   map[string]int64
	// Histograms maps metric name to a full bucket snapshot.
	Histograms map[string]HistogramSnapshot
	// Summaries maps metric name to a window snapshot.
	Summaries map[string]SummarySnapshot
}

// Snapshot copies every metric's current value. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Summaries:  map[string]SummarySnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	ms := r.sorted()
	r.mu.Unlock()
	for _, m := range ms {
		switch m.kind {
		case "counter":
			s.Counters[m.name] = m.c.Value()
		case "gauge":
			s.Gauges[m.name] = m.g.Value()
		case "histogram":
			s.Histograms[m.name] = m.h.snapshot()
		case "summary":
			s.Summaries[m.name] = m.s.snapshot()
		}
	}
	return s
}

// Sub returns the delta snapshot cur − prev: counters and histogram
// buckets subtract (metrics absent from prev pass through), gauges keep
// their current value. It makes per-experiment tables possible on one
// long-lived registry.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Summaries:  map[string]SummarySnapshot{},
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p, ok := prev.Histograms[name]
		if !ok || len(p.Counts) != len(h.Counts) {
			out.Histograms[name] = h
			continue
		}
		d := HistogramSnapshot{
			Bounds: h.Bounds,
			Counts: make([]int64, len(h.Counts)),
			Count:  h.Count - p.Count,
			Sum:    h.Sum - p.Sum,
		}
		for i := range h.Counts {
			d.Counts[i] = h.Counts[i] - p.Counts[i]
		}
		out.Histograms[name] = d
	}
	// A summary's window is not subtractable sample-by-sample; keep the
	// current window and delta only the lifetime count/sum.
	for name, s := range s.Summaries {
		p := s
		if prev, ok := prev.Summaries[name]; ok {
			p.Count = s.Count - prev.Count
			p.Sum = s.Sum - prev.Sum
		}
		out.Summaries[name] = p
	}
	return out
}
