package bench

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"llpmst/internal/mst"
)

func TestSampleStatistics(t *testing.T) {
	var s Sample
	if s.Min() != 0 || s.Median() != 0 || s.Mean() != 0 || s.Stddev() != 0 || s.RelSpread() != 0 {
		t.Fatal("empty sample should be all zeros")
	}
	for _, ms := range []float64{4, 2, 8, 6} {
		s.Add(time.Duration(ms * float64(time.Millisecond)))
	}
	if s.Min() != 2 {
		t.Fatalf("Min = %v", s.Min())
	}
	if s.Median() != 5 { // (4+6)/2
		t.Fatalf("Median = %v", s.Median())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	want := math.Sqrt((9 + 1 + 9 + 1) / 3.0) // sample stddev of {4,2,8,6}
	if math.Abs(s.Stddev()-want) > 1e-9 {
		t.Fatalf("Stddev = %v, want %v", s.Stddev(), want)
	}
	if s.RelSpread() <= 0 {
		t.Fatal("RelSpread should be positive")
	}
	if !strings.Contains(s.String(), "med") {
		t.Fatal("String format wrong")
	}
	// Odd count median.
	s.Add(100 * time.Millisecond)
	if s.Median() != 6 {
		t.Fatalf("odd median = %v", s.Median())
	}
}

func TestMeasureFillsSpreadFields(t *testing.T) {
	g, err := GetDataset(ScaleTest, "road")
	if err != nil {
		t.Fatal(err)
	}
	r, err := MeasureCtx(context.Background(), g, mst.AlgKruskal, mst.Options{Workers: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.MedianMs < r.Millis {
		t.Fatalf("median %v below min %v", r.MedianMs, r.Millis)
	}
	if r.StddevMs < 0 {
		t.Fatal("negative stddev")
	}
}

func TestRenderChart(t *testing.T) {
	var buf bytes.Buffer
	RenderChart(&buf, "demo", "x", "y", []Series{
		{Label: "a", X: []float64{0, 1, 2}, Y: []float64{1, 2, 4}},
		{Label: "b", X: []float64{0, 1, 2}, Y: []float64{4, 2, 1}},
	})
	out := buf.String()
	for _, want := range []string{"-- demo --", "x: x", "y: y", "* a", "o b", "|"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines < chartH {
		t.Fatalf("chart has only %d lines", lines)
	}
}

func TestRenderChartDegenerate(t *testing.T) {
	var buf bytes.Buffer
	RenderChart(&buf, "empty", "x", "y", nil)
	if !strings.Contains(buf.String(), "(no data)") {
		t.Fatal("empty chart not handled")
	}
	buf.Reset()
	RenderChart(&buf, "nopoints", "x", "y", []Series{{Label: "a"}})
	if !strings.Contains(buf.String(), "(no points)") {
		t.Fatal("pointless chart not handled")
	}
	buf.Reset()
	// Single point: degenerate ranges must not divide by zero.
	RenderChart(&buf, "single", "x", "y", []Series{{Label: "a", X: []float64{1}, Y: []float64{5}}})
	if !strings.Contains(buf.String(), "* a") {
		t.Fatal("single-point chart broken")
	}
}

func TestChartFig3(t *testing.T) {
	var buf bytes.Buffer
	ChartFig3(&buf, []Result{
		{Algorithm: "a", Workers: 1, Speedup: 1},
		{Algorithm: "a", Workers: 2, Speedup: 1.8},
		{Algorithm: "b", Workers: 1, Speedup: 1},
		{Algorithm: "b", Workers: 2, Speedup: 0.9},
	})
	if !strings.Contains(buf.String(), "Fig. 3 (chart)") {
		t.Fatal("fig3 chart missing title")
	}
}
