package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/seed42_quick.golden from this run")

// TestQuickGolden pins a quick seeded run's report byte for byte: every
// E1–E16 table is deterministic per seed once the timing summaries are off.
// A change that moves a row must regenerate the file with
//
//	go test ./cmd/cstbench -run TestQuickGolden -update
//
// and explain the moved row.
func TestQuickGolden(t *testing.T) {
	o, err := parseFlags([]string{"-seed", "42", "-quick", "-metrics-summary=false"})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(o, &got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "seed42_quick.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("report differs from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	o, err := parseFlags([]string{"-exp", "E99", "-metrics-summary=false"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), `unknown experiment "E99"`) {
		t.Fatalf("run -exp E99: %v, want unknown experiment", err)
	}
}
