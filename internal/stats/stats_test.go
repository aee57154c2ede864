package stats

import (
	"math"
	"strings"
	"testing"
)

func TestLatencyCollectorEmpty(t *testing.T) {
	var c LatencyCollector
	if c.Count() != 0 || c.Mean() != 0 || c.Percentile(0.5) != 0 || c.Max() != 0 {
		t.Error("empty collector not zeroed")
	}
}

func TestLatencyCollectorStats(t *testing.T) {
	var c LatencyCollector
	for _, v := range []float64{10, 20, 30, 40, 50} {
		c.Add(v)
	}
	if c.Count() != 5 {
		t.Errorf("Count = %d", c.Count())
	}
	if c.Mean() != 30 {
		t.Errorf("Mean = %v", c.Mean())
	}
	if got := c.Percentile(0.5); got != 30 {
		t.Errorf("P50 = %v", got)
	}
	if got := c.Percentile(1.0); got != 50 {
		t.Errorf("P100 = %v", got)
	}
	if got := c.Percentile(0.0); got != 10 {
		t.Errorf("P0 = %v", got)
	}
	if c.Max() != 50 {
		t.Errorf("Max = %v", c.Max())
	}
	// Adding after a sort must re-sort.
	c.Add(5)
	if got := c.Percentile(0.0); got != 5 {
		t.Errorf("P0 after Add = %v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var c LatencyCollector
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if got := c.Percentile(0.99); got != 99 {
		t.Errorf("P99 = %v, want 99", got)
	}
	if got := c.Percentile(0.01); got != 1 {
		t.Errorf("P1 = %v, want 1", got)
	}
}

func TestCurveSummaries(t *testing.T) {
	c := Curve{Label: "MLID 1VL", Points: []Point{
		{OfferedLoad: 0.1, Accepted: 0.1, MeanLatencyNs: 500},
		{OfferedLoad: 0.5, Accepted: 0.45, MeanLatencyNs: 900},
		{OfferedLoad: 0.9, Accepted: 0.48, MeanLatencyNs: 9000, Saturated: true},
	}}
	if got := c.PeakAccepted(); got != 0.48 {
		t.Errorf("PeakAccepted = %v", got)
	}
	if got := c.LowLoadLatency(); got != 500 {
		t.Errorf("LowLoadLatency = %v", got)
	}
	if (Curve{}).LowLoadLatency() != 0 || (Curve{}).PeakAccepted() != 0 {
		t.Error("empty curve summaries not zero")
	}
}

func TestCSV(t *testing.T) {
	out := CSV([]Curve{{Label: "S", Points: []Point{{OfferedLoad: 0.25, Accepted: 0.2, MeanLatencyNs: 123.4, Delivered: 10, Generated: 12}}}})
	if !strings.HasPrefix(out, "series,") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "S,0.250000,0.200000,123.40") {
		t.Errorf("bad row: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Errorf("%d lines", len(lines))
	}
}

func TestASCIIChart(t *testing.T) {
	curves := []Curve{
		{Label: "MLID", Points: []Point{{Accepted: 0.1, MeanLatencyNs: 400}, {Accepted: 0.5, MeanLatencyNs: 2000}}},
		{Label: "SLID", Points: []Point{{Accepted: 0.1, MeanLatencyNs: 450}, {Accepted: 0.3, MeanLatencyNs: 5000}}},
	}
	out := ASCIIChart("test fig", curves, 40, 10)
	if !strings.Contains(out, "test fig") || !strings.Contains(out, "M = MLID") || !strings.Contains(out, "S = SLID") {
		t.Errorf("chart missing parts:\n%s", out)
	}
	if !strings.Contains(out, "M") {
		t.Error("no markers plotted")
	}
	// Degenerate inputs.
	if got := ASCIIChart("empty", nil, 0, 0); !strings.Contains(got, "no data") {
		t.Errorf("empty chart: %q", got)
	}
	one := []Curve{{Label: "x", Points: []Point{{Accepted: 0.2, MeanLatencyNs: 100}}}}
	if got := ASCIIChart("one", one, 0, 0); got == "" || strings.Contains(got, "NaN") {
		t.Errorf("single-point chart: %q", got)
	}
	if math.IsNaN(one[0].PeakAccepted()) {
		t.Error("NaN peak")
	}
}
