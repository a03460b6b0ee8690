package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"cst/internal/stats"
)

// expo is one parsed Prometheus text exposition: series name (labels
// included, as printed) to value.
type expo map[string]float64

// parseExpo reads a text exposition. Comment lines and exemplar suffixes
// ("# {trace_id=...}") are skipped; a malformed sample line is an error.
func parseExpo(r io.Reader) (expo, error) {
	out := expo{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		// The value follows the last space outside the label braces.
		cut := strings.LastIndexByte(line, '}')
		sp := strings.IndexByte(line[cut+1:], ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		name := line[:cut+1+sp]
		fields := strings.Fields(line[cut+1+sp:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses /metrics.
func scrape(addr string) (expo, error) {
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseExpo(resp.Body)
}

// sub returns after − before for every series in after (counters and
// histogram buckets become window deltas; gauges and summary quantiles
// should be read from after directly).
func (after expo) sub(before expo) expo {
	out := expo{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le    float64
	count float64
}

// buckets returns the cumulative buckets of histogram family name with the
// given extra labels ("" or `protocol="wire"`), sorted by upper bound.
func (e expo) buckets(name, labels string) []bucket {
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	var out []bucket
	for k, v := range e {
		if !strings.HasPrefix(k, prefix+`le="`) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, prefix+`le="`), `"}`)
		bound := math.Inf(1)
		if le != "+Inf" {
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = f
		}
		out = append(out, bucket{le: bound, count: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// histQuantile interpolates the q-quantile of cumulative buckets linearly
// inside the bucket that holds it (the lowest bucket starts at 0).
func histQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].count <= 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].count
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.count == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.count-prev)
		}
		lo, prev = b.le, b.count
	}
	return lo
}

// countAtMost returns how many observations fell at or below bound.
func countAtMost(bs []bucket, bound float64) float64 {
	n := 0.0
	for _, b := range bs {
		if b.le <= bound {
			n = b.count
		}
	}
	return n
}

// tailQuantile is the highest of the reported percentiles that leaves at
// least ten samples beyond it, or 0.5 when even p90 does not.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

// latencyStats summarises window latencies (nanoseconds) as p50, p99
// (capped at the tail percentile the sample supports) and the tail
// percentile itself.
type latencyStats struct {
	n              int
	p50, p99, tail float64 // microseconds
	tailQ, p99Q    float64
}

func summarise(latNS []int64) latencyStats {
	xs := make([]float64, len(latNS))
	for i, v := range latNS {
		xs[i] = float64(v) / 1e3
	}
	tq := tailQuantile(len(xs))
	p99q := math.Min(0.99, tq)
	qs := stats.Quantiles(xs, 0.5, p99q, tq)
	return latencyStats{n: len(xs), p50: qs[0], p99: qs[1], tail: qs[2], tailQ: tq, p99Q: p99q}
}
