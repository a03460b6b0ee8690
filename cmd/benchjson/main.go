// Command benchjson converts `go test -bench` text output into a stable
// JSON document for CI artifacts. With -ledger the parsed benchmarks are
// additionally appended to the perf lab's JSONL ledger (internal/lab
// schema), so bench runs feed the same regression gate as cstlab sweeps.
// Serving performance is measured by servebench, not through this tool.
//
// Examples:
//
//	go test -bench=. -run='^$' . | go run ./cmd/benchjson -out bench.json
//	go test -bench=. -run='^$' . | go run ./cmd/benchjson -ledger BENCH_ledger.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"cst/internal/lab"
)

// Benchmark is one parsed benchmark result line. Extra carries custom
// metrics emitted via b.ReportMetric or cstload's req/s column, keyed by
// their unit string.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Document is the emitted JSON schema.
type Document struct {
	Label      string      `json:"label,omitempty"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		in     = flag.String("in", "", "bench output file (default stdin)")
		out    = flag.String("out", "", "output JSON file (default stdout)")
		label  = flag.String("label", "", "free-form label stored in the document")
		match  = flag.String("match", "", "keep only benchmarks whose name matches this regexp")
		ledger = flag.String("ledger", "", "also append parsed benchmarks to this JSONL ledger")
	)
	flag.Parse()

	var keep *regexp.Regexp
	if *match != "" {
		var err error
		if keep, err = regexp.Compile(*match); err != nil {
			fatal(fmt.Errorf("-match: %v", err))
		}
	}

	doc := Document{Label: *label}
	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	var err error
	if doc.Benchmarks, err = parse(src, &doc); err != nil {
		fatal(err)
	}
	doc.Benchmarks = filter(doc.Benchmarks, keep)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}

	if *ledger != "" {
		entries := ledgerEntries(doc, "benchjson")
		if err := lab.Append(*ledger, entries); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: appended %d entries to %s\n", len(entries), *ledger)
	}
}

// ledgerEntries normalizes a document's benchmarks into lab ledger entries:
// one ns/op entry per benchmark, plus B/op and allocs/op entries when the
// run recorded them. The machine fingerprint comes from the document's
// goos/goarch/cpu header when present, falling back to the local machine.
func ledgerEntries(doc Document, source string) []lab.Entry {
	st := lab.NewStamp(source, doc.Label)
	if doc.Goos != "" {
		st.Machine = lab.Machine{Goos: doc.Goos, Goarch: doc.Goarch, CPU: doc.CPU}
	}
	var out []lab.Entry
	for _, b := range doc.Benchmarks {
		out = append(out, st.Apply(lab.Entry{Bench: b.Name, Unit: "ns/op",
			Value: b.NsPerOp, Samples: int(b.Iterations)}))
		if b.BytesPerOp > 0 {
			out = append(out, st.Apply(lab.Entry{Bench: b.Name, Unit: "B/op",
				Value: float64(b.BytesPerOp)}))
		}
		if b.AllocsPerOp > 0 {
			out = append(out, st.Apply(lab.Entry{Bench: b.Name, Unit: "allocs/op",
				Value: float64(b.AllocsPerOp)}))
		}
		for _, unit := range sortedKeys(b.Extra) {
			out = append(out, st.Apply(lab.Entry{Bench: b.Name, Unit: unit,
				Value: b.Extra[unit]}))
		}
	}
	return out
}

// sortedKeys keeps ledger output deterministic across runs.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parse reads `go test -bench` output: benchmark result lines plus the
// goos/goarch/cpu header (stored into doc when non-nil).
func parse(r io.Reader, doc *Document) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if doc != nil {
			if v, ok := strings.CutPrefix(line, "goos: "); ok {
				doc.Goos = v
				continue
			}
			if v, ok := strings.CutPrefix(line, "goarch: "); ok {
				doc.Goarch = v
				continue
			}
			if v, ok := strings.CutPrefix(line, "cpu: "); ok {
				doc.CPU = v
				continue
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name  N  ns/op-value "ns/op"  [B/op-value "B/op"  allocs-value "allocs/op"]
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		b := Benchmark{Name: fields[0]}
		var err error
		if b.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		if b.NsPerOp, err = strconv.ParseFloat(fields[2], 64); err != nil {
			continue
		}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "B/op":
				b.BytesPerOp = int64(v)
			case "allocs/op":
				b.AllocsPerOp = int64(v)
			default:
				// Custom metric (b.ReportMetric / cstload req/s): keep the
				// unit as the key so the ledger can track it directly.
				if b.Extra == nil {
					b.Extra = map[string]float64{}
				}
				b.Extra[unit] = v
			}
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// filter drops benchmarks whose name does not match keep (nil keeps all).
func filter(in []Benchmark, keep *regexp.Regexp) []Benchmark {
	if keep == nil {
		return in
	}
	var out []Benchmark
	for _, b := range in {
		if keep.MatchString(b.Name) {
			out = append(out, b)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
