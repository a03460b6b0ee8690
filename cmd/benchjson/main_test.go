package main

import (
	"strings"
	"testing"

	"cst/internal/lab"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
cpu: TestCPU
BenchmarkA 1000 1234.5 ns/op 64 B/op 3 allocs/op
BenchmarkB 500 99 ns/op
not a bench line
`
	var doc Document
	bs, err := parse(strings.NewReader(in), &doc)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.CPU != "TestCPU" {
		t.Errorf("header: %+v", doc)
	}
	if len(bs) != 2 || bs[0].NsPerOp != 1234.5 || bs[0].BytesPerOp != 64 || bs[0].AllocsPerOp != 3 {
		t.Errorf("parsed: %+v", bs)
	}
}

// Custom metrics (b.ReportMetric, cstload's req/s column) land in Extra
// keyed by unit and flow into the ledger as their own entries.
func TestParseExtraMetrics(t *testing.T) {
	in := `BenchmarkServeWireThroughput 2000 18081.0 ns/op 55307.2 req/s
BenchmarkWireServeSerial 1000 18000 ns/op 55000.5 req/s 0 B/op 0 allocs/op
`
	var doc Document
	bs, err := parse(strings.NewReader(in), &doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("parsed %d benchmarks", len(bs))
	}
	if bs[0].Extra["req/s"] != 55307.2 {
		t.Errorf("extra = %v", bs[0].Extra)
	}
	if bs[1].Extra["req/s"] != 55000.5 || bs[1].BytesPerOp != 0 || bs[1].AllocsPerOp != 0 {
		t.Errorf("mixed extras: %+v", bs[1])
	}
	doc.Benchmarks = bs
	entries := ledgerEntries(doc, "test")
	// Each benchmark: ns/op + req/s (zero B/op and allocs/op are elided).
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	if entries[1].Unit != "req/s" || entries[1].Value != 55307.2 {
		t.Errorf("req/s entry: %+v", entries[1])
	}
}

func TestLedgerEntriesNormalization(t *testing.T) {
	doc := Document{
		Label: "historic run", Goos: "linux", Goarch: "arm64", CPU: "OldCPU",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA", Iterations: 1000, NsPerOp: 1234.5, BytesPerOp: 64, AllocsPerOp: 3},
			{Name: "BenchmarkB", Iterations: 500, NsPerOp: 99},
		},
	}
	entries := ledgerEntries(doc, "convert:test")
	// A yields ns/op + B/op + allocs/op; B yields ns/op only.
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	e := entries[0]
	if e.Schema != lab.SchemaVersion || e.Source != "convert:test" || e.Label != "historic run" {
		t.Errorf("provenance: %+v", e)
	}
	if e.Bench != "BenchmarkA" || e.Unit != "ns/op" || e.Value != 1234.5 || e.Samples != 1000 {
		t.Errorf("ns/op entry: %+v", e)
	}
	// The historic document's machine header wins over the local machine.
	if e.Machine.Goarch != "arm64" || e.Machine.CPU != "OldCPU" {
		t.Errorf("machine: %+v", e.Machine)
	}
	if entries[1].Unit != "B/op" || entries[1].Value != 64 ||
		entries[2].Unit != "allocs/op" || entries[2].Value != 3 {
		t.Errorf("memory entries: %+v %+v", entries[1], entries[2])
	}
}
