package stats

import (
	"math"
	"sort"
)

// Clean returns xs with every NaN and ±Inf removed. The input is not
// modified; a clean input is returned as-is (no copy).
func Clean(xs []float64) []float64 {
	dirty := false
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			dirty = true
			break
		}
	}
	if !dirty {
		return xs
	}
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

// Quantile returns the q-th quantile (0..1) of xs by the nearest-rank
// definition (ceil(q·n)-th smallest sample). NaN and Inf samples are
// ignored; an empty (or all-NaN) input yields 0. This is the shared
// quantile implementation: obs summaries, the perf lab and servebench all
// route through it.
func Quantile(xs []float64, q float64) float64 {
	qs := Quantiles(xs, q)
	return qs[0]
}

// Quantiles computes several quantiles over one sorted copy of xs. Each q
// is clamped to [0, 1]; see Quantile for the semantics.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	clean := Clean(xs)
	if len(clean) == 0 {
		return out
	}
	sorted := append([]float64(nil), clean...)
	sort.Float64s(sorted)
	for i, q := range qs {
		rank := int(math.Ceil(q*float64(len(sorted)))) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(sorted) {
			rank = len(sorted) - 1
		}
		out[i] = sorted[rank]
	}
	return out
}

// Median returns the 0.5 quantile (nearest-rank; 0 for an empty input).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }
