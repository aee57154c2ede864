package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// TestMaxMinReadStreaming: Max and Min answer from the running extremes,
// before any Percentile call.
func TestMaxMinReadStreaming(t *testing.T) {
	var c LatencyCollector
	for _, v := range []float64{40, 10, 50, 20, 30} {
		c.Add(v)
	}
	if got := c.Max(); got != 50 {
		t.Errorf("Max before any Percentile = %v, want 50", got)
	}
	if got := c.Min(); got != 10 {
		t.Errorf("Min = %v, want 10", got)
	}
	c.Add(60)
	if got := c.Max(); got != 60 {
		t.Errorf("Max after Add = %v, want 60", got)
	}
}

func TestStreamingModeRetainsNoSamples(t *testing.T) {
	var c LatencyCollector
	for i := 0; i < 1000; i++ {
		c.Add(float64(100 + i))
	}
	// Samples 100..1099 touch octaves 6 (64..127) through 10 (1024..2047):
	// exactly those rows exist, each one full octave wide.
	for o, row := range c.counts {
		touched := o >= 6 && o <= 10
		if touched != (row != nil) {
			t.Errorf("octave %d: row allocated = %t, want %t", o, row != nil, touched)
		}
		if row != nil && len(row) != latSubs {
			t.Errorf("octave %d: row size = %d, want %d", o, len(row), latSubs)
		}
	}
	if len(c.counts) != latOctaves {
		t.Errorf("row table size = %d, want %d", len(c.counts), latOctaves)
	}
}

func TestLatIndexValueRoundTrip(t *testing.T) {
	// Every sample must bin into a bucket whose lower edge is <= the sample
	// and within one part in 2^latSubBits of it.
	for _, v := range []float64{1, 1.0009, 2, 3, 100, 111, 1054, 65536.5, 1e9, 3.7e12} {
		i := latIndex(v)
		lo := latValue(i)
		if lo > v {
			t.Errorf("latValue(latIndex(%v)) = %v > sample", v, lo)
		}
		if rel := (v - lo) / v; rel >= 1.0/latSubs {
			t.Errorf("quantization error for %v: edge %v, rel %v", v, lo, rel)
		}
	}
	// Sub-1 samples clamp into bucket 0; out-of-range samples clamp into the
	// last bucket instead of indexing out of bounds.
	if latIndex(0.25) != 0 || latIndex(0) != 0 {
		t.Error("sub-1 samples must clamp to bucket 0")
	}
	if latIndex(math.MaxFloat64) != latBuckets-1 {
		t.Error("huge samples must clamp to the last bucket")
	}
}

// exactNearestRank is the reference quantile: nearest-rank over a sorted
// copy, matching the pre-histogram collector semantics.
func exactNearestRank(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// TestStreamingPercentileErrorBound is the seeded quick-check: adversarial
// distributions through the streaming histogram, P99/P999 compared against
// exact nearest-rank, relative error asserted below the documented 0.1%.
func TestStreamingPercentileErrorBound(t *testing.T) {
	const n = 20000
	gens := map[string]func(r *rand.Rand) float64{
		// Two tight modes three decades apart: P99 sits inside the far mode.
		"bimodal": func(r *rand.Rand) float64 {
			if r.Float64() < 0.97 {
				return 200 + 20*r.Float64()
			}
			return 150000 + 5000*r.Float64()
		},
		// Pareto-style heavy tail: the top ranks spread over many octaves.
		"heavy-tail": func(r *rand.Rand) float64 {
			return 100 / math.Pow(1-r.Float64(), 1.5)
		},
		// Degenerate: every sample identical, percentiles must be exact.
		"constant": func(r *rand.Rand) float64 { return 1234.5 },
		// Uniform over a wide range, non-integer samples.
		"uniform": func(r *rand.Rand) float64 { return 1 + 1e6*r.Float64() },
		// Log-uniform over 2^-4..2^40: 44 octaves, a sub-1 ns share that
		// clamps into bucket 0, and a sprinkle of samples beyond 2^64 that
		// clamp into the top octave's last bucket — all below P1 or above
		// P999, so the checked ranks fall in the exactly-binned range.
		"wide": func(r *rand.Rand) float64 {
			if r.Float64() < 0.0005 {
				return 1e25
			}
			return math.Exp2(-4 + 44*r.Float64())
		},
	}
	for name, gen := range gens {
		for seed := int64(1); seed <= 5; seed++ {
			r := rand.New(rand.NewSource(seed))
			var c LatencyCollector
			samples := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				v := gen(r)
				c.Add(v)
				samples = append(samples, v)
			}
			for _, q := range []float64{0.99, 0.999} {
				want := exactNearestRank(samples, q)
				got := c.Percentile(q)
				rel := math.Abs(got-want) / want
				if rel > 0.001 {
					t.Errorf("%s seed %d P%g: got %v, want %v, rel err %v > 0.1%%",
						name, seed, q*100, got, want, rel)
				}
			}
			// Exact aggregates must be exact regardless of distribution.
			if c.Max() != exactNearestRank(samples, 1) {
				t.Errorf("%s seed %d: Max = %v, want %v", name, seed, c.Max(), exactNearestRank(samples, 1))
			}
			if c.Count() != n {
				t.Errorf("%s seed %d: Count = %d", name, seed, c.Count())
			}
			if name == "wide" {
				rows := 0
				for _, row := range c.counts {
					if row != nil {
						rows++
					}
				}
				if rows < 20 || c.counts[0] == nil || c.counts[latOctaves-1] == nil {
					t.Errorf("wide seed %d: %d octave rows (bottom %t, top %t), want >= 20 with both clamps",
						seed, rows, c.counts[0] != nil, c.counts[latOctaves-1] != nil)
				}
			}
		}
	}
}

// TestResetMatchesFresh: a collector reset after one run's samples answers
// every query on the next run's samples exactly as a fresh collector does,
// and one refilled within the octaves it already touched allocates nothing.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	first := make([]float64, 2000)
	for i := range first {
		first[i] = 100 + rng.ExpFloat64()*5000
	}
	second := []float64{5e6, 120, 7, 900, 45_000} // new octaves both ends
	var reused, fresh LatencyCollector
	for _, v := range first {
		reused.Add(v)
	}
	reused.Percentile(0.5)
	reused.Reset()
	if reused.Count() != 0 || reused.Mean() != 0 || reused.Max() != 0 || reused.Min() != 0 ||
		reused.Percentile(0.5) != 0 || reused.Octaves() != nil {
		t.Fatal("a reset collector is not empty")
	}
	for _, v := range second {
		reused.Add(v)
		fresh.Add(v)
	}
	if reused.Count() != fresh.Count() || reused.Mean() != fresh.Mean() ||
		reused.Max() != fresh.Max() || reused.Min() != fresh.Min() {
		t.Error("reset collector's summary differs from a fresh one")
	}
	for _, q := range []float64{0, 0.2, 0.5, 0.8, 0.99, 1} {
		if got, want := reused.Percentile(q), fresh.Percentile(q); got != want {
			t.Errorf("P%v = %v after Reset, fresh %v", q, got, want)
		}
	}

	var c LatencyCollector
	for _, v := range first {
		c.Add(v)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		c.Reset()
		for _, v := range first {
			c.Add(v)
		}
	}); allocs != 0 {
		t.Errorf("refilling a reset collector allocated %.0f times, want 0", allocs)
	}
}

// octaveOf is the reference octave of a sample: the e with 2^e <= v <
// 2^(e+1), counting sub-nanosecond samples in octave 0.
func octaveOf(v float64) int {
	e := 0
	for v >= math.Exp2(float64(e+1)) {
		e++
	}
	return e
}

func TestHistogramEmpty(t *testing.T) {
	var c LatencyCollector
	if c.Count() != 0 || c.Mean() != 0 || c.Percentile(0.5) != 0 || c.Max() != 0 || c.Octaves() != nil {
		t.Error("empty collector not zeroed")
	}
}

// TestHistogramBucketing holds Octaves to a per-octave count of a fixed
// sample set, then to the shorter slice of a reset collector refilled in
// fewer octaves.
func TestHistogramBucketing(t *testing.T) {
	samples := []float64{0.25, 1, 1.5, 2, 3, 150, 255, 255.9, 256, 350, 350, 511, 1024, 5e6, 1e12}
	var c LatencyCollector
	var want []int64
	for _, v := range samples {
		c.Add(v)
		e := octaveOf(v)
		for len(want) <= e {
			want = append(want, 0)
		}
		want[e]++
	}
	if got := c.Octaves(); !reflect.DeepEqual(got, want) {
		t.Errorf("Octaves = %v, want %v", got, want)
	}
	c.Reset()
	c.Add(3)
	c.Add(5)
	c.Add(7.5)
	if got, want := c.Octaves(), []int64{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("Octaves after Reset = %v, want %v", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var c LatencyCollector
	for i := 0; i < 90; i++ {
		c.Add(150)
	}
	for i := 0; i < 10; i++ {
		c.Add(10_000)
	}
	if q := c.Percentile(0.5); q != 150 {
		t.Errorf("P50 = %v, want 150", q)
	}
	if q := c.Percentile(0.99); q != 10_000 {
		t.Errorf("P99 = %v, want 10000", q)
	}
	var one LatencyCollector
	one.Add(5)
	if q := one.Percentile(0.9); q != 5 {
		t.Errorf("single-sample P90 = %v, want 5", q)
	}
}

// Property: Percentile is monotone in q.
func TestQuickHistogramQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var c LatencyCollector
	for i := 0; i < 500; i++ {
		c.Add(10 + rng.Float64()*1e6)
	}
	f := func(a, b uint8) bool {
		qa, qb := float64(a)/255, float64(b)/255
		if qa > qb {
			qa, qb = qb, qa
		}
		return c.Percentile(qa) <= c.Percentile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: the octave counts sum to the sample count, and the slice ends at
// a non-empty octave.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(vals []uint32) bool {
		var c LatencyCollector
		for _, v := range vals {
			c.Add(float64(v % 1_000_000))
		}
		octs := c.Octaves()
		var sum int64
		for _, n := range octs {
			sum += n
		}
		return sum == int64(c.Count()) && c.Count() == len(vals) &&
			(len(octs) == 0) == (len(vals) == 0) && (len(octs) == 0 || octs[len(octs)-1] > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}
