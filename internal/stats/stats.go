// Package stats provides the shared numeric helpers — mean, extremes,
// quantiles — and the table formatting the experiment harness and perf lab
// build on. Every consumer that reports a percentile routes through
// Quantile so the repo has exactly one definition of "p99".
package stats

import (
	"fmt"
	"strings"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100); it is Quantile on the
// 0..1 scale and shares its nearest-rank semantics.
func Percentile(xs []float64, p float64) float64 {
	return Quantile(xs, p/100)
}

// Table accumulates rows and renders them as GitHub-flavoured markdown or
// CSV. Columns are fixed at construction.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i := range t.headers {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	b.WriteString("|")
	for i := range t.headers {
		b.WriteString(strings.Repeat("-", widths[i]+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header line.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.headers, ","))
	b.WriteString("\n")
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}
