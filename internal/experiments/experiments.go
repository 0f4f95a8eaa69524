// Package experiments implements the reproduction's evaluation harness: one
// runner per experiment table (E1-E19), each regenerating the table that
// stands in for the corresponding theorem/figure of the paper. The Runners
// registry is the one place that decides which instances a table runs, at
// its default sizes or its -big sweep; cmd/allbench and the root-level
// BenchmarkTables both drive it, so `go test -bench` output and the CLI
// tables match.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", t.ID, t.Title)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Cell looks up a cell by row index and column name ("" if absent).
func (t *Table) Cell(row int, col string) string {
	for ci, h := range t.Header {
		if h == col && row < len(t.Rows) {
			return t.Rows[row][ci]
		}
	}
	return ""
}

// logLogSlope estimates the slope of log(y) vs log(x) by least squares —
// used to check polynomial growth exponents (e.g. quality vs diameter
// slope <= 2 for Theorem 6).
func logLogSlope(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		lx[i] = ln(xs[i])
		ly[i] = ln(ys[i])
		sx += lx[i]
		sy += ly[i]
	}
	for i := range xs {
		sxx += (lx[i] - sx/n) * (lx[i] - sx/n)
		sxy += (lx[i] - sx/n) * (ly[i] - sy/n)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}

func ln(x float64) float64 { return math.Log(x) }
