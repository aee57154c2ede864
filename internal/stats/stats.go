// Package stats collects and summarizes the simulator's performance metrics:
// the paper's two reported quantities — accepted traffic in bytes/ns per
// processing node and average message latency in nanoseconds — plus latency
// percentiles, throughput accounting, and curve assembly for the figures.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Histogram geometry of the streaming LatencyCollector: log-linear (HDR
// style) buckets with 2^latSubBits linear subbuckets per power-of-two
// octave. A sample v >= 1 in [2^E, 2^(E+1)) lands in the subbucket whose
// width is 2^E / 2^latSubBits, so the bucket's lower edge underestimates v
// by at most one part in 2^latSubBits — a relative quantization error
// bounded by 2^-10 < 0.1% on every reported percentile. Samples below 1 ns
// clamp into the first bucket (no simulated latency is sub-nanosecond);
// octaves cover E in [0, latOctaves), far beyond any simulated horizon.
const (
	latSubBits = 10
	latSubs    = 1 << latSubBits
	latOctaves = 64
	latBuckets = latOctaves * latSubs
)

// latIndex maps a sample to its bucket. The exponent and mantissa come
// straight from the float64 bit pattern: the top latSubBits mantissa bits
// are the linear subbucket within the sample's octave.
func latIndex(v float64) int {
	if v < 1 {
		return 0
	}
	b := math.Float64bits(v)
	e := int(b>>52&0x7ff) - 1023
	sub := int(b >> (52 - latSubBits) & (latSubs - 1))
	i := e<<latSubBits | sub
	if i >= latBuckets {
		return latBuckets - 1
	}
	return i
}

// latValue returns the lower edge of bucket i — the representative value a
// percentile query reports for samples binned there.
func latValue(i int) float64 {
	return math.Ldexp(1+float64(i&(latSubs-1))/latSubs, i>>latSubBits)
}

// LatencyCollector accumulates per-packet latencies (ns) inside the
// measurement window. The zero value is a streaming collector: Add is O(1)
// and allocates only on the first sample of an octave, Mean/Count/Max/Min
// are exact, and Percentile answers from a log-linear histogram with
// relative quantization error below 0.1% (see latSubBits). Memory is one row
// of latSubs buckets per octave a sample has touched — a run's latencies
// span a handful of octaves, so a collector holds a few rows instead of all
// latOctaves, independent of the sample count; no sample is retained.
// Octaves reads the histogram's per-octave counts.
type LatencyCollector struct {
	count int64
	sum   float64
	min   float64
	max   float64
	// counts is the streaming histogram: counts[o] is octave o's row of
	// latSubs buckets (bucket i lives at counts[i>>latSubBits][i&(latSubs-1)]).
	// The row table is allocated on first Add and each row on its octave's
	// first sample; untouched octaves stay nil.
	counts [][]int64
}

// Add records one latency sample.
func (c *LatencyCollector) Add(ns float64) {
	c.count++
	c.sum += ns
	if c.count == 1 || ns > c.max {
		c.max = ns
	}
	if c.count == 1 || ns < c.min {
		c.min = ns
	}
	if c.counts == nil {
		c.counts = make([][]int64, latOctaves)
	}
	i := latIndex(ns)
	row := c.counts[i>>latSubBits]
	if row == nil {
		row = make([]int64, latSubs)
		c.counts[i>>latSubBits] = row
	}
	row[i&(latSubs-1)]++
}

// Reset empties the collector for reuse. It keeps the histogram rows it has
// allocated, zeroed, so a collector reset between runs allocates again only
// for octaves no earlier run touched.
func (c *LatencyCollector) Reset() {
	for _, row := range c.counts {
		clear(row)
	}
	*c = LatencyCollector{counts: c.counts}
}

// Count returns the number of samples.
func (c *LatencyCollector) Count() int { return int(c.count) }

// Mean returns the average latency, or 0 with no samples.
func (c *LatencyCollector) Mean() float64 {
	if c.count == 0 {
		return 0
	}
	return c.sum / float64(c.count)
}

// Percentile returns the q-quantile (q in [0,1]) by nearest-rank, or 0 with
// no samples. The extreme ranks (the minimum and maximum sample) are always
// exact; interior ranks carry the histogram's sub-0.1% quantization error.
func (c *LatencyCollector) Percentile(q float64) float64 {
	if c.count == 0 {
		return 0
	}
	want := int64(math.Ceil(q * float64(c.count)))
	if want < 1 {
		want = 1
	}
	if want >= c.count {
		return c.max
	}
	if want == 1 {
		return c.min
	}
	var acc int64
	for o, row := range c.counts {
		for sub, n := range row {
			acc += n
			if acc >= want {
				return latValue(o<<latSubBits | sub)
			}
		}
	}
	return c.max
}

// Max returns the largest sample, or 0 with no samples.
func (c *LatencyCollector) Max() float64 { return c.max }

// Min returns the smallest sample, or 0 with no samples.
func (c *LatencyCollector) Min() float64 {
	if c.count == 0 {
		return 0
	}
	return c.min
}

// Octaves returns the sample count per power-of-two octave: entry e counts
// the samples in [2^e, 2^(e+1)) ns, and sub-nanosecond samples count in
// entry 0. The slice is fresh and ends at the highest non-empty octave; it
// is nil for an empty collector. A reset collector keeps zeroed rows of
// earlier samples, so the end is found by count, not by which rows exist.
func (c *LatencyCollector) Octaves() []int64 {
	var sums [latOctaves]int64
	n := 0
	for o, row := range c.counts {
		for _, k := range row {
			sums[o] += k
		}
		if sums[o] > 0 {
			n = o + 1
		}
	}
	if n == 0 {
		return nil
	}
	return slices.Clone(sums[:n])
}

// Point is one measured operating point of a latency/throughput curve.
type Point struct {
	// OfferedLoad is the injection rate the generators attempted, in
	// bytes/ns per node.
	OfferedLoad float64
	// Accepted is the delivered traffic, in bytes/ns per node — the paper's
	// x-axis.
	Accepted float64
	// MeanLatencyNs is the average generation-to-delivery latency of packets
	// delivered in the measurement window — the paper's y-axis.
	MeanLatencyNs float64
	// P99LatencyNs is the 99th-percentile latency.
	P99LatencyNs float64
	// Delivered and Generated count packets in the measurement window.
	Delivered, Generated int64
	// Saturated marks points where accepted traffic fell visibly below
	// offered traffic (the run crossed the saturation knee).
	Saturated bool
}

// Curve is a labelled series of points, e.g. "MLID 2 VL" on one network.
type Curve struct {
	Label  string
	Points []Point
}

// PeakAccepted returns the curve's maximum accepted traffic — the throughput
// number used in the paper's Observations ("the throughput of the MLID
// scheme is higher...").
func (c Curve) PeakAccepted() float64 {
	var m float64
	for _, p := range c.Points {
		if p.Accepted > m {
			m = p.Accepted
		}
	}
	return m
}

// LowLoadLatency returns the mean latency of the curve's lowest offered-load
// point, or 0 for an empty curve.
func (c Curve) LowLoadLatency() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	best := c.Points[0]
	for _, p := range c.Points[1:] {
		if p.OfferedLoad < best.OfferedLoad {
			best = p
		}
	}
	return best.MeanLatencyNs
}

// CSV renders the curves in long form: label,offered,accepted,latency,p99.
func CSV(curves []Curve) string {
	var b strings.Builder
	b.WriteString("series,offered_bytes_per_ns_node,accepted_bytes_per_ns_node,mean_latency_ns,p99_latency_ns,delivered,generated,saturated\n")
	for _, c := range curves {
		for _, p := range c.Points {
			fmt.Fprintf(&b, "%s,%.6f,%.6f,%.2f,%.2f,%d,%d,%t\n",
				c.Label, p.OfferedLoad, p.Accepted, p.MeanLatencyNs, p.P99LatencyNs,
				p.Delivered, p.Generated, p.Saturated)
		}
	}
	return b.String()
}

// ASCIIChart renders accepted-traffic vs latency curves as a fixed-size text
// chart, mirroring the paper's figures for terminal inspection. Each curve
// gets a distinct marker; the x-axis is accepted traffic and the y-axis is
// mean latency (log10 scale, since latencies diverge at saturation).
func ASCIIChart(title string, curves []Curve, width, height int) string {
	if width < 20 {
		width = 60
	}
	if height < 8 {
		height = 20
	}
	var maxX, maxY, minY float64
	minY = math.Inf(1)
	any := false
	for _, c := range curves {
		for _, p := range c.Points {
			if p.Accepted > maxX {
				maxX = p.Accepted
			}
			if p.MeanLatencyNs > maxY {
				maxY = p.MeanLatencyNs
			}
			if p.MeanLatencyNs > 0 && p.MeanLatencyNs < minY {
				minY = p.MeanLatencyNs
			}
			any = true
		}
	}
	if !any || maxX == 0 || maxY == 0 {
		return title + ": (no data)\n"
	}
	logMin, logMax := math.Log10(minY), math.Log10(maxY)
	if logMax-logMin < 1e-9 {
		logMax = logMin + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	markers := []byte{'M', 'S', 'o', 'x', '+', '*', '#', '@'}
	for ci, c := range curves {
		mark := markers[ci%len(markers)]
		for _, p := range c.Points {
			if p.MeanLatencyNs <= 0 {
				continue
			}
			x := int(p.Accepted / maxX * float64(width-1))
			y := int((math.Log10(p.MeanLatencyNs) - logMin) / (logMax - logMin) * float64(height-1))
			row := height - 1 - y
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][x] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nlatency ns (log) %.0f..%.0f | accepted bytes/ns/node 0..%.4f\n", title, minY, maxY, maxX)
	for i, row := range grid {
		marker := "|"
		if i == height-1 {
			marker = "+"
		}
		fmt.Fprintf(&b, "%s%s\n", marker, string(row))
	}
	b.WriteString(" " + strings.Repeat("-", width) + "\n")
	for ci, c := range curves {
		fmt.Fprintf(&b, "  %c = %s (peak %.4f B/ns/node)\n", markers[ci%len(markers)], c.Label, c.PeakAccepted())
	}
	return b.String()
}
