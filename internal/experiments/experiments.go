// Package experiments contains the reconstructed evaluation of the paper:
// the tables (T1-T10), figures (F1-F6) and ablations (A1-A3) listed in
// DESIGN.md. Each is a set of run parameters plus a renderer: the runs
// build their simulations through internal/chaos's group builder (NewNet,
// and RunGroup for the flat and hierarchical groups, whose deliveries
// must pass the chaos safety checks), drive the real protocol engines
// through a seeded workload, and return the table rows or figure series
// the paper-style write-up quotes. cmd/mmbench prints them; bench_test.go
// wraps them as testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Options scales the experiments.
type Options struct {
	// Quick shrinks group sizes and message counts for CI and
	// benchmarks; the full configuration reproduces EXPERIMENTS.md.
	Quick bool
	// Seed offsets all simulation seeds; zero uses the defaults that
	// EXPERIMENTS.md was recorded with.
	Seed int64
}

func (o Options) seed(base int64) int64 { return base + o.Seed }

// Table is one paper-style result table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Render writes the table as aligned text.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// Series is one line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is one paper-style result figure, rendered as columns.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render writes the figure's series as aligned text columns.
func (f Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s  (x: %s, y: %s)\n", f.ID, f.Title, f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "  series %s\n", s.Name)
		for i := range s.X {
			fmt.Fprintf(w, "    %12.4f  %12.4f\n", s.X[i], s.Y[i])
		}
	}
}

// ms formats a duration in milliseconds with fixed precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// msf formats a float of milliseconds.
func msf(v float64) string { return fmt.Sprintf("%.2f", v) }

// ratio formats a dimensionless ratio.
func ratio(v float64) string { return fmt.Sprintf("%.2f", v) }
