// Package stats provides the summary statistics, least-squares fits,
// and table rendering used by the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary describes a sample of measurements.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	Median         float64
	P90            float64
	SuccessCount   int
	AttemptedCount int
}

// Summarize computes a Summary. successes/attempts track w.h.p.
// experiments (failed runs are excluded from the sample by callers).
func Summarize(xs []float64, successes, attempts int) Summary {
	s := Summary{N: len(xs), SuccessCount: successes, AttemptedCount: attempts}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = Percentile(sorted, 0.5)
	s.P90 = Percentile(sorted, 0.9)
	for _, x := range xs {
		s.Mean += x
	}
	s.Mean /= float64(len(xs))
	for _, x := range xs {
		d := x - s.Mean
		s.Std += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(s.Std / float64(len(xs)-1))
	}
	return s
}

// Percentile returns the p-quantile (0..1) of a sorted sample by
// linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Fit is a least-squares linear fit y = Slope·x + Intercept with the
// coefficient of determination R2.
type Fit struct {
	Slope, Intercept, R2 float64
}

// LinearFit fits y against x.
func LinearFit(x, y []float64) Fit {
	if len(x) != len(y) || len(x) < 2 {
		return Fit{R2: math.NaN()}
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{R2: math.NaN()}
	}
	f := Fit{}
	f.Slope = (n*sxy - sx*sy) / den
	f.Intercept = (sy - f.Slope*sx) / n
	ssTot := syy - sy*sy/n
	ssRes := 0.0
	for i := range x {
		d := y[i] - (f.Slope*x[i] + f.Intercept)
		ssRes += d * d
	}
	if ssTot > 0 {
		f.R2 = 1 - ssRes/ssTot
	} else {
		f.R2 = 1
	}
	return f
}

// Table is a rendered experiment table.
type Table struct {
	Title   string
	Comment string
	Header  []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	if t.Comment != "" {
		fmt.Fprintf(&sb, "%s\n", t.Comment)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Header, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var sb strings.Builder
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	sb.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return sb.String()
}

// F formats a float compactly for table cells.
func F(x float64) string {
	switch {
	case math.IsNaN(x):
		return "-"
	case math.Abs(x) >= 1000:
		return fmt.Sprintf("%.0f", x)
	case math.Abs(x) >= 10:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}
