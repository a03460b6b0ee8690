package stats

import (
	"math"
	"testing"
)

func TestCleanFiltersNonFinite(t *testing.T) {
	in := []float64{1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1)}
	got := Clean(in)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Clean = %v", got)
	}
	// A clean input must come back without copying.
	clean := []float64{4, 5}
	if out := Clean(clean); &out[0] != &clean[0] {
		t.Error("Clean copied an already-clean slice")
	}
	if out := Clean(nil); len(out) != 0 {
		t.Errorf("Clean(nil) = %v", out)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty input must read 0")
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := Quantile([]float64{math.NaN(), math.NaN()}, 0.5); got != 0 {
		t.Errorf("all-NaN input must read 0, got %v", got)
	}
	if got := Quantile([]float64{math.NaN(), 3, 1, math.Inf(1), 2}, 0.5); got != 2 {
		t.Errorf("NaN/Inf must be ignored: got %v", got)
	}
	// Nearest-rank on 1..10.
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {-1, 1}, {2, 10},
	} {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("Quantile reordered the caller's slice")
	}

	// Rank edge cases around ceil(q·n)−1: q=0 underflows the rank to −1
	// and must clamp low to the minimum sample (not panic or read out of
	// bounds), a subnormal-tiny q rounds up to rank 0, and q=1 lands
	// exactly on the maximum — on multi-sample inputs and the n=1
	// degenerate where both clamps collapse onto the same index.
	for _, c := range []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"q=0 multi", []float64{5, 3, 4}, 0, 3},
		{"q=0 single", []float64{7}, 0, 7},
		{"q=tiny multi", []float64{5, 3, 4}, 1e-300, 3},
		{"q=tiny single", []float64{7}, 1e-300, 7},
		{"q=1 multi", []float64{5, 3, 4}, 1, 5},
		{"q=1 single", []float64{7}, 1, 7},
		{"q just under 1", []float64{5, 3, 4}, math.Nextafter(1, 0), 5},
	} {
		if got := Quantile(c.xs, c.q); got != c.want {
			t.Errorf("%s: Quantile(%v, %v) = %v, want %v", c.name, c.xs, c.q, got, c.want)
		}
	}
}

func TestQuantilesSharesOneSort(t *testing.T) {
	got := Quantiles([]float64{3, 1, 2}, 0, 0.5, 1)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Quantiles = %v", got)
	}
	if out := Quantiles(nil, 0.5, 0.99); out[0] != 0 || out[1] != 0 {
		t.Errorf("empty Quantiles = %v", out)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4, 100}); got != 3 {
		t.Errorf("Median = %v", got)
	}
	// Nearest rank on an even count takes the lower middle sample.
	if got := Median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("Median of 4 samples = %v", got)
	}
	if got := Median([]float64{math.NaN(), 1, 2, 3}); got != 2 {
		t.Errorf("Median must ignore NaN: %v", got)
	}
	if Median(nil) != 0 {
		t.Error("Median of no samples must be 0")
	}
}
