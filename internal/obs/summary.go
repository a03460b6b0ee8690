package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"cst/internal/stats"
)

// Summary is a bounded-reservoir quantile metric: it retains the most
// recent capacity samples in a fixed ring and reports exact (nearest-rank)
// quantiles over that window, plus a whole-lifetime count, sum and max.
// Unlike Histogram it needs no bucket layout chosen up front and its
// quantiles carry no interpolation error — the tradeoff is that they
// describe a sliding window, not all of history, which is exactly what a
// latency metric wants. Memory is bounded at capacity × 8 bytes.
//
// The update path is lock-free (one ring store + three atomic adds); like
// Histogram, a concurrent reader may observe a sample mid-window, which is
// accepted. A nil Summary no-ops.
type Summary struct {
	ring  []atomic.Uint64 // math.Float64bits of each sample
	next  atomic.Uint64   // total inserts; ring slot is next % len(ring)
	sum   atomic.Uint64   // math.Float64bits of the running sum
	max   atomic.Uint64   // math.Float64bits of the lifetime max
	count atomic.Int64
	// traces mirrors ring slot-for-slot with the trace id of each sample
	// (0 = untraced); maxTrace holds the trace id of the lifetime max.
	// Together they are the exemplar store: /metrics annotates the p99 and
	// max quantile lines with OpenMetrics `# {trace_id=...}` exemplars so a
	// regressed summary links straight to a pinned span tree.
	traces   []atomic.Uint64
	maxTrace atomic.Uint64
}

// DefSummaryCapacity is the default sample window when a registration
// passes capacity <= 0: large enough that p99 over the window rests on
// ~40 samples, small enough to stay under 32 KiB per metric.
const DefSummaryCapacity = 4096

// SummaryQuantiles are the quantiles every summary exposes on /metrics.
// {quantile="1"} is the exact max over the window.
var SummaryQuantiles = []float64{0.5, 0.9, 0.99, 1}

// Observe records one sample. NaN samples are dropped (they would poison
// every quantile downstream).
func (s *Summary) Observe(v float64) { s.ObserveTraced(v, 0) }

// ObserveTraced records one sample carrying the trace id of the request
// that produced it (0 = untraced), making the sample an exemplar
// candidate. Same lock-free cost as Observe plus one ring store.
func (s *Summary) ObserveTraced(v float64, trace TraceID) {
	if s == nil || math.IsNaN(v) {
		return
	}
	slot := (s.next.Add(1) - 1) % uint64(len(s.ring))
	s.ring[slot].Store(math.Float64bits(v))
	s.traces[slot].Store(uint64(trace))
	s.count.Add(1)
	for {
		old := s.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := s.max.Load()
		if v <= math.Float64frombits(old) && s.count.Load() > 1 {
			break
		}
		if s.max.CompareAndSwap(old, math.Float64bits(v)) {
			// The slight race between the max CAS and this store is accepted:
			// a concurrent larger max wins the value; its trace may land a
			// beat later.
			s.maxTrace.Store(uint64(trace))
			break
		}
	}
}

// ObserveDuration records a duration in seconds.
func (s *Summary) ObserveDuration(d time.Duration) { s.Observe(d.Seconds()) }

// Count returns the lifetime sample count (0 on nil).
func (s *Summary) Count() int64 {
	if s == nil {
		return 0
	}
	return s.count.Load()
}

// Sum returns the lifetime sample sum (0 on nil).
func (s *Summary) Sum() float64 {
	if s == nil {
		return 0
	}
	return math.Float64frombits(s.sum.Load())
}

// Max returns the lifetime maximum sample (0 on nil or empty).
func (s *Summary) Max() float64 {
	if s == nil || s.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(s.max.Load())
}

// Quantile returns the q-th quantile (0..1) over the retained window
// (0 with no samples).
func (s *Summary) Quantile(q float64) float64 {
	if s == nil {
		return 0
	}
	return stats.Quantile(s.window(), q)
}

// window copies out the currently retained samples.
func (s *Summary) window() []float64 {
	n := s.next.Load()
	retained := int(n)
	if retained > len(s.ring) {
		retained = len(s.ring)
	}
	out := make([]float64, retained)
	for i := 0; i < retained; i++ {
		out[i] = math.Float64frombits(s.ring[i].Load())
	}
	return out
}

// Snapshot returns a point-in-time copy of the summary — the window,
// aligned trace ids, and lifetime aggregates (zero on nil).
func (s *Summary) Snapshot() SummarySnapshot {
	if s == nil {
		return SummarySnapshot{}
	}
	return s.snapshot()
}

func (s *Summary) snapshot() SummarySnapshot {
	snap := SummarySnapshot{
		Samples:  s.window(),
		Count:    s.count.Load(),
		Sum:      math.Float64frombits(s.sum.Load()),
		Max:      s.Max(),
		MaxTrace: TraceID(s.maxTrace.Load()),
	}
	snap.Traces = make([]TraceID, len(snap.Samples))
	for i := range snap.Traces {
		snap.Traces[i] = TraceID(s.traces[i].Load())
	}
	return snap
}

// SummarySnapshot is a point-in-time copy of one summary.
type SummarySnapshot struct {
	// Samples is the retained window (unordered).
	Samples []float64
	// Traces holds each sample's trace id (0 = untraced), index-aligned
	// with Samples; MaxTrace is the trace id of the lifetime max.
	Traces   []TraceID
	MaxTrace TraceID
	// Count and Sum aggregate all samples ever observed; Max is the
	// lifetime maximum.
	Count int64
	Sum   float64
	Max   float64
}

// Quantile returns the q-th quantile of the snapshot's window.
func (s SummarySnapshot) Quantile(q float64) float64 { return stats.Quantile(s.Samples, q) }

// Exemplar returns the trace id and value of the traced sample nearest the
// q-th quantile of the window — the "which request was that p99" link.
// Returns (0, 0) when no retained sample carries a trace id.
func (s SummarySnapshot) Exemplar(q float64) (TraceID, float64) {
	if len(s.Samples) == 0 || len(s.Traces) != len(s.Samples) {
		return 0, 0
	}
	target := stats.Quantile(s.Samples, q)
	var (
		best     TraceID
		bestVal  float64
		bestDist = math.Inf(1)
	)
	for i, v := range s.Samples {
		if s.Traces[i] == 0 {
			continue
		}
		d := math.Abs(v - target)
		if d < bestDist {
			bestDist, best, bestVal = d, s.Traces[i], v
		}
	}
	return best, bestVal
}

// Summary returns (registering on first use) the named summary. The
// capacity is kept from the first registration; pass <= 0 for
// DefSummaryCapacity. Nil registry → nil handle.
func (r *Registry) Summary(name, help string, capacity int) *Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m.s
	}
	if capacity <= 0 {
		capacity = DefSummaryCapacity
	}
	m := newMetric(name, help, "summary")
	m.s = &Summary{
		ring:   make([]atomic.Uint64, capacity),
		traces: make([]atomic.Uint64, capacity),
	}
	r.metrics[name] = m
	return m.s
}

// writeSummary emits one summary in the Prometheus text format:
// quantile-labelled gauge lines over the retained window plus the
// lifetime _sum and _count. The p99 and max lines carry OpenMetrics-style
// `# {trace_id="..."} value` exemplar annotations when a traced sample is
// available, linking the quantile to a pinned span tree; untraced
// summaries expose exactly the classic format.
func writeSummary(w io.Writer, m *metric, s *Summary) error {
	snap := s.snapshot()
	qs := stats.Quantiles(snap.Samples, SummaryQuantiles...)
	for i, q := range SummaryQuantiles {
		exemplar := ""
		switch {
		case q == 1 && snap.MaxTrace != 0:
			exemplar = fmt.Sprintf(" # {trace_id=%q} %g", snap.MaxTrace.String(), snap.Max)
		case q >= 0.99 && q < 1:
			if trace, v := snap.Exemplar(q); trace != 0 {
				exemplar = fmt.Sprintf(" # {trace_id=%q} %g", trace.String(), v)
			}
		}
		if _, err := fmt.Fprintf(w, "%s %g%s\n", m.seriesWith("", "quantile", formatFloat(q)), qs[i], exemplar); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s %g\n%s %d\n", m.series("_sum"), snap.Sum, m.series("_count"), snap.Count)
	return err
}
