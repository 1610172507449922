package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5}, 5, 5)
	if s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("%+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-9 {
		t.Fatalf("std = %f", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, 0, 3)
	if s.N != 0 || s.AttemptedCount != 3 {
		t.Fatalf("%+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{0, 10, 20, 30, 40}
	if Percentile(sorted, 0.5) != 20 {
		t.Fatal("median wrong")
	}
	if Percentile(sorted, 0) != 0 || Percentile(sorted, 1) != 40 {
		t.Fatal("extremes wrong")
	}
	if got := Percentile(sorted, 0.25); got != 10 {
		t.Fatalf("q25 = %f", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 2x + 3
	f := LinearFit(x, y)
	if math.Abs(f.Slope-2) > 1e-9 || math.Abs(f.Intercept-3) > 1e-9 {
		t.Fatalf("%+v", f)
	}
	if f.R2 < 0.999 {
		t.Fatalf("R2 = %f", f.R2)
	}
}

func TestLinearFitRecoversRandomLine(t *testing.T) {
	f := func(a, b int8) bool {
		slope, icept := float64(a), float64(b)
		x := []float64{0, 1, 2, 3, 4, 5}
		y := make([]float64, len(x))
		for i := range x {
			y[i] = slope*x[i] + icept
		}
		fit := LinearFit(x, y)
		return math.Abs(fit.Slope-slope) < 1e-6 && math.Abs(fit.Intercept-icept) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"a", "bbbb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	out := tb.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "333") {
		t.Fatalf("bad render:\n%s", out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bbbb\n1,2\n") {
		t.Fatalf("bad csv:\n%s", csv)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| a | bbbb |") || !strings.Contains(md, "| --- | --- |") {
		t.Fatalf("bad markdown:\n%s", md)
	}
}

func TestF(t *testing.T) {
	if F(math.NaN()) != "-" || F(12345) != "12345" || F(12.34) != "12.3" || F(1.2345) != "1.234" {
		t.Fatalf("%s %s %s %s", F(math.NaN()), F(12345.0), F(12.34), F(1.2345))
	}
}
