package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("registered %d experiments, want 16", len(all))
	}
	seen := map[string]bool{}
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("E5"); !ok {
		t.Error("ByID(E5) not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) should not resolve")
	}
}

// Every experiment must run clean in quick mode and report its observation.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := Config{Seed: 42, Quick: true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunOne(&buf, e, cfg); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, "## "+e.ID) {
				t.Errorf("%s: missing header:\n%s", e.ID, out)
			}
			if !strings.Contains(out, "Observed:") {
				t.Errorf("%s: missing observation:\n%s", e.ID, out)
			}
			if !strings.Contains(out, "|") {
				t.Errorf("%s: missing table:\n%s", e.ID, out)
			}
		})
	}
}

func TestObservedVerdicts(t *testing.T) {
	cfg := Config{Seed: 7, Quick: true}
	checks := map[string]string{
		"E1":  "PADR optimal on all rows = true",
		"E2":  "(Θ(w))",
		"E3":  "= true",
		"E4":  "independent of N and w = true",
		"E5":  "fully verified",
		"E6":  "<= 2 CST rounds (one per orientation) = true",
		"E8":  "exactly = true",
		"E9":  "churn Θ(w)",
		"E10": "holding wins under the paper model (HoldCost 0) on every row = true",
		"E12": "on every input = true",
		"E13": "speedup grows with R) = true",
		"E15": "property of the inputs themselves",
		"E16": "every load = true",
	}
	for id, want := range checks {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		var buf bytes.Buffer
		if err := RunOne(&buf, e, cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s verdict missing %q:\n%s", id, want, buf.String())
		}
	}
}

// Golden regression for the headline result: the E2 full sweep must show
// PADR's hottest switch at exactly 2 units for every width while the
// baseline churn equals w-1. Any engine regression that disturbs the power
// behaviour trips this immediately.
func TestE2GoldenSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode sweep skipped in -short mode")
	}
	e, ok := ByID("E2")
	if !ok {
		t.Fatal("E2 missing")
	}
	var buf bytes.Buffer
	if err := RunOne(&buf, e, Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, row := range []string{
		"| 4  | 2", "| 8  | 2", "| 16 | 2", "| 32 | 2", "| 64 | 2",
		"| 63                      |",
	} {
		if !strings.Contains(out, row) {
			t.Errorf("E2 golden row missing %q:\n%s", row, out)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range All() {
		if err := RunOne(&buf, e, Config{Seed: 1, Quick: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range All() {
		if !strings.Contains(buf.String(), "## "+e.ID) {
			t.Errorf("quick run output missing %s", e.ID)
		}
	}
}
