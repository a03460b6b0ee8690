package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cst/internal/stats"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Parent 0 marks a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"` // items the call covered (frames, batch members)
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent int32, t0, t1 time.Time, n int) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: t0.Sub(r.origin).Nanoseconds(), End: t1.Sub(r.origin).Nanoseconds(), N: n})
	return id
}

// open starts a root span; end closes it.
func (r *recorder) open(name string) int32 {
	t := time.Now()
	return r.add(name, 0, t, t, 0)
}

func (r *recorder) end(id int32) {
	r.mu.Lock()
	r.spans[id-1].End = time.Since(r.origin).Nanoseconds()
	r.mu.Unlock()
}

// durations returns the durations of the spans called name, divided by
// their item counts when perItem is set.
func (r *recorder) durations(name string, perItem bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var xs []float64
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		d := float64(s.End - s.Start)
		if perItem && s.N > 0 {
			d /= float64(s.N)
		}
		xs = append(xs, d)
	}
	return xs
}

// median returns the median span duration (ns) of name, 0 without spans.
func (r *recorder) median(name string) float64 { return stats.Median(r.durations(name, false)) }

// medianPerItem returns the median per-item duration (ns) of name.
func (r *recorder) medianPerItem(name string) float64 { return stats.Median(r.durations(name, true)) }

// selfTime is one span name's totals: wall time and self time, the part of
// its spans no child span covers.
type selfTime struct {
	name        string
	spans       int
	total, self int64
}

func (r *recorder) selfTimes() []selfTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int32][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*selfTime{}
	var order []string
	for _, s := range r.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		st.spans++
		st.total += d
		st.self += d - covered(children[s.ID])
	}
	out := make([]selfTime, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// covered returns the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// write dumps every span as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints the self-time table, one line per span name.
func printSelfTimes(r *recorder) {
	for _, st := range r.selfTimes() {
		fmt.Printf("span %-22s %7d spans  total %9.2f ms  self %9.2f ms\n",
			st.name, st.spans, float64(st.total)/1e6, float64(st.self)/1e6)
	}
}
