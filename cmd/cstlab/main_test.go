package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("32, 64,128")
	if err != nil || len(got) != 3 || got[0] != 32 || got[2] != 128 {
		t.Fatalf("parseInts: %v %v", got, err)
	}
	if _, err := parseInts(""); err == nil {
		t.Error("empty list must error")
	}
	if _, err := parseInts("32,x"); err == nil {
		t.Error("bad integer must error")
	}
}

// TestSweepPassesEndToEnd drives a small sweep through the CLI: every
// count matches the twin, so it exits 0 with the table on stdout.
func TestSweepPassesEndToEnd(t *testing.T) {
	var out, errw bytes.Buffer
	code := runSweep([]string{"-n", "16,32", "-w", "2", "-engines", "padr", "-reps", "2"}, &out, &errw)
	if code != 0 {
		t.Fatalf("sweep exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "latency µs") || !strings.Contains(errw.String(), "sweep ok") {
		t.Errorf("sweep output:\n%s%s", out.String(), errw.String())
	}
}

func TestPredictClosedForms(t *testing.T) {
	var out, errw bytes.Buffer
	code := runPredict([]string{"-engine", "padr", "-workload", "chain", "-n", "256", "-w", "16"}, &out, &errw)
	if code != 0 {
		t.Fatalf("predict exit %d: %s", code, errw.String())
	}
	for _, want := range []string{"rounds        16", "phase1 words  510", "phase2 words  8160", "<= 6"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("predict output missing %q:\n%s", want, out.String())
		}
	}
	// No prediction for an engine, a workload or a tree that does not
	// exist.
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "100"},
		{"-w", "0"},
		{"-engine", "warp"},
		{"-workload", "nope"},
		{"-engine", "warp", "-workload", "nope", "-n", "100"},
	} {
		out.Reset()
		if code := runPredict(args, &out, &errw); code != 2 || out.Len() != 0 {
			t.Errorf("predict %v: exit %d, want 2 and no prediction; stdout:\n%s", args, code, out.String())
		}
	}
}

func TestSweepUsageErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := runSweep([]string{"-n", "nope"}, &out, &errw); code != 2 {
		t.Errorf("bad -n: exit %d, want 2", code)
	}
	if code := runSweep([]string{"-n", "16", "-w", "2", "-engines", "warp"}, &out, &errw); code != 2 {
		t.Errorf("unknown engine: exit %d, want 2", code)
	}
	// A set-overlap ratio is a fraction: -0.5 would mutate 1.5·active
	// slots per delta and 1.5 a negative number of them.
	for _, ov := range []string{"-0.5", "1.5", "NaN"} {
		out.Reset()
		if code := runDelta([]string{"-n", "64", "-active", "8", "-overlaps", ov}, &out, &errw); code != 2 || out.Len() != 0 {
			t.Errorf("delta -overlaps %s: exit %d, want 2 and no table; stdout:\n%s", ov, code, out.String())
		}
	}
	if code := runDelta([]string{"-n", "64", "-active", "32"}, &out, &errw); code != 2 {
		t.Errorf("delta with 32 active slots on N=64: exit %d, want 2", code)
	}
}
