package stats

import (
	"strings"
	"testing"
)

func TestMaxMin(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %v", got)
	}
	if got := Min(xs); got != 1 {
		t.Errorf("Min = %v", got)
	}
	if Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty slices must read 0")
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := NewTable("w", "rounds", "ratio")
	tab.AddRow(4, 4, 1.0)
	tab.AddRow(16, 16, 2.5)
	md := tab.Markdown()
	for _, want := range []string{"| w ", "| rounds |", "| 2.50", "|---"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	if tab.Rows() != 2 {
		t.Errorf("Rows = %d", tab.Rows())
	}
	lines := strings.Split(strings.TrimSpace(md), "\n")
	if len(lines) != 4 {
		t.Errorf("markdown has %d lines, want 4:\n%s", len(lines), md)
	}
}

func TestTableRaggedRow(t *testing.T) {
	tab := NewTable("a", "b", "c")
	tab.AddRow("only", "two")
	md := tab.Markdown()
	if !strings.Contains(md, "only") {
		t.Errorf("ragged row dropped:\n%s", md)
	}
}
