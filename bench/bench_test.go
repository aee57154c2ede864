package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestWorkloadsMini runs every workload at miniature size through the timed
// path and the traced path: each repetition's digest must repeat, the traced
// pass must reproduce the timed output bit for bit, and the per-layer
// counters must repeat exactly between two traced passes.
func TestWorkloadsMini(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, w.defaultSeed, 0, true, true, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.rec.Attempted != 2 || res.rec.Failed != 0 {
				t.Fatalf("attempted %d, failed %d; want 2, 0", res.rec.Attempted, res.rec.Failed)
			}
			j := w.build(w.defaultSeed, true)
			if err := j.setup(); err != nil {
				t.Fatal(err)
			}
			again, err := j.run(j)
			if err != nil {
				t.Fatal(err)
			}
			if again.digest() != res.rec.Digest || !again.same(res.out) {
				t.Fatalf("digest %s on a second run, %s on the first", again.digest(), res.rec.Digest)
			}
			if !res.traced.same(res.out) {
				t.Fatal("traced pass differs from the timed repetition")
			}
			for _, m := range perLayer {
				if _, ok := res.rec.PerLayer[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			t2, out2, err := tracedPass(j)
			if err != nil {
				t.Fatal(err)
			}
			if !out2.same(res.out) {
				t.Fatal("second traced pass differs")
			}
			layers2, err := t2.layerMetrics(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range perLayer {
				if m.unit != "count" && m.unit != "B" && m.unit != "ratio" || m.name == "experiment.parallelism" {
					continue
				}
				if got, want := layers2[m.name], res.rec.PerLayer[m.name].Value; got != want {
					t.Errorf("%s: %v on the second traced pass, %v on the first", m.name, got, want)
				}
			}
			if res.rec.PerLayer["sim.runs"].Value == 0 || res.rec.PerLayer["sim.events"].Value == 0 {
				t.Error("traced pass recorded no simulation")
			}
		})
	}
}

// TestCompareRoundTrip writes a set through -json's path, reads it back and
// compares it with itself: every pair must be unchanged.
func TestCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "set.json")
	for _, w := range []string{"figs_quick", "degraded_8x3", "figs_quick"} {
		rec := record{Workload: w, Seed: 7, Attempted: 5, EndToEnd: map[string]summary{}}
		for i, m := range endToEnd {
			samples := []float64{1, 1.01, 0.99, 1.02, 0.98}
			if m.name == "failed_frac" {
				samples = []float64{0}
			}
			for k := range samples {
				samples[k] *= float64(i + 1)
			}
			rec.EndToEnd[m.name] = summarize(m.unit, samples)
		}
		if err := addToSet(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	s, err := readSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Records) != 2 {
		t.Fatalf("%d records, want 2 (a workload's second record replaces its first)", len(s.Records))
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-compare", path, path}, &out, &errb); code != 0 {
		t.Fatalf("compare exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
	if len(lines) != 2*len(endToEnd) {
		t.Fatalf("%d verdict lines, want %d:\n%s", len(lines), 2*len(endToEnd), out.String())
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, unchanged) {
			t.Errorf("self-compare: %s", l)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.2, 9.8}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name     string
		new      []float64
		bound    float64
		want     string
		wantSign float64
	}{
		{"same", []float64{10.05, 9.95, 10, 10.15, 9.85}, 0.10, unchanged, 0},
		{"slower", scale(base, 1.3), 0.10, regressed, 1},
		{"faster", scale(base, 0.7), 0.10, improved, -1},
		{"significant gain within bound", scale(base, 0.95), 0.10, unchanged, -1},
		{"within bound", scale(base, 1.05), 0.10, unchanged, 1},
		{"noisy", []float64{6, 14, 10, 8, 12}, 0.10, unresolved, 0},
	}
	for _, c := range cases {
		delta, _, got := judge(base, c.new, c.bound)
		if got != c.want {
			t.Errorf("%s: verdict %s (delta %+.3f), want %s", c.name, got, delta, c.want)
		}
		if c.wantSign != 0 && math.Signbit(delta) != math.Signbit(c.wantSign) {
			t.Errorf("%s: delta %+.3f has the wrong sign", c.name, delta)
		}
	}
	if _, _, v := judge([]float64{0}, []float64{0.2}, 0); v != regressed {
		t.Errorf("any increase of a zero-bound metric: %s, want %s", v, regressed)
	}
	if _, p, v := judge([]float64{100}, []float64{130}, 0.10); v != regressed || !math.IsNaN(p) {
		t.Errorf("single samples 30%% worse: %s p=%v, want %s and no p-value", v, p, regressed)
	}
}

func TestMannWhitneyExact(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{6, 7, 8, 9, 10}
	if p := mannWhitneyP(x, y); math.Abs(p-2.0/252) > 1e-12 {
		t.Errorf("fully separated 5 vs 5: p = %v, want 2/252", p)
	}
	if p, q := mannWhitneyP(x, y), mannWhitneyP(y, x); p != q {
		t.Errorf("not symmetric: %v vs %v", p, q)
	}
	// Check every U of 5 vs 5 against a brute-force count over all C(10,5)
	// rank sets.
	counts := make([]float64, 26)
	for mask := 0; mask < 1<<10; mask++ {
		if popcount(mask) != 5 {
			continue
		}
		u := 0
		for i := 0; i < 10; i++ {
			if mask&(1<<i) != 0 {
				for j := 0; j < i; j++ {
					if mask&(1<<j) == 0 {
						u++ // an x ranked above a y
					}
				}
			}
		}
		counts[u]++
	}
	for u := 0; u <= 25; u++ {
		var lo, hi float64
		for k, c := range counts {
			if k <= u {
				lo += c
			}
			if k >= u {
				hi += c
			}
		}
		want := math.Min(1, 2*math.Min(lo, hi)/252)
		if got := exactUP(5, 5, u); math.Abs(got-want) > 1e-12 {
			t.Errorf("U=%d: p = %v, want %v", u, got, want)
		}
	}
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestMannWhitneyApprox(t *testing.T) {
	same := []float64{1, 2, 2, 3, 3, 3, 4, 4, 5}
	if p := mannWhitneyP(same, same); p < 0.99 {
		t.Errorf("identical samples with ties: p = %v, want about 1", p)
	}
	var a, b []float64
	for i := 0; i < 30; i++ {
		a = append(a, float64(i%7))
		b = append(b, float64(i%7)+4)
	}
	if p := mannWhitneyP(a, b); p > 1e-4 {
		t.Errorf("shifted samples with ties: p = %v, want < 1e-4", p)
	}
	if p := mannWhitneyP(nil, a); p != 1 {
		t.Errorf("empty sample: p = %v, want 1", p)
	}
}

// TestQuartiles pins the Python statistics.quantiles(n=4) values.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6}, // Python extrapolates below two samples per quarter
		{[]float64{3}, 3, 3},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestFoldTop(t *testing.T) {
	text := `File: mlidbench
Type: cpu
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
    1000ms 50.00% 50.00%     1200ms 60.00%  mlid@v0.0.0/internal/sim/engine.go
     500ms 25.00% 75.00%      500ms 25.00%  runtime/mgcmark.go
     0.25s 12.50% 87.50%      300ms 15.00%  mlid@v0.0.0/internal/sim/sim.go (inline)
     250ms 12.50%   100%      250ms 12.50%  sort/sort.go
`
	got, err := foldTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim.engine": 50, "runtime.gc": 25, "sim.dataplane": 12.5, "unmapped": 12.5}
	for _, l := range profLayers {
		if got[l] != want[l] {
			t.Errorf("%s: %v%%, want %v%%", l, got[l], want[l])
		}
	}
	if _, err := foldTop("no table here"); err == nil {
		t.Error("output without a table: want an error")
	}
	for file, layer := range map[string]string{
		"mlid/bench/trace.go":                         "experiment",
		"mlid@v0.0.0/internal/verify/reachability.go": "verify",
		"mlid@v0.0.0/internal/sm/inband.go":           "sim.insm",
		"internal/runtime/maps/runtime_fast64.go":     "runtime.other",
	} {
		if got := layerOf(file); got != layer {
			t.Errorf("layerOf(%s) = %s, want %s", file, got, layer)
		}
	}
}

// TestResolveDegradedSeed checks that every resolved seed draws
// non-adjacent switches, and that a seed whose draw is adjacent advances.
func TestResolveDegradedSeed(t *testing.T) {
	w, err := workloadByName("degraded_8x3")
	if err != nil {
		t.Fatal(err)
	}
	advanced := 0
	for s := int64(1); s <= 60; s++ {
		j := w.build(s, false)
		if j.seed < s {
			t.Fatalf("seed %d resolved backwards to %d", s, j.seed)
		}
		if j.seed != s {
			advanced++
		}
	}
	if advanced == 0 {
		t.Error("no seed in 1..60 advanced; the adjacency check is not exercised")
	}
	if j := w.build(w.defaultSeed, false); j.seed != w.defaultSeed {
		t.Errorf("default seed %d resolved to %d", w.defaultSeed, j.seed)
	}
}

// TestReportLine checks the result line's keys and metric sets.
func TestReportLine(t *testing.T) {
	rec := record{Workload: "figs_quick", Attempted: 3, EndToEnd: map[string]summary{}, PerLayer: map[string]value{}}
	for _, m := range endToEnd {
		rec.EndToEnd[m.name] = summarize(m.unit, []float64{1, 2, 3})
	}
	for _, m := range perLayer {
		rec.PerLayer[m.name] = value{1, m.unit}
	}
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		if err := report(&buf, rec, traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if keys := sortedKeys(line); strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Errorf("result line keys %v", keys)
		}
		var metrics map[string]value
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := benchmarkJSON(t).EndToEnd
		if traced {
			want = benchmarkJSON(t).PerLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(metrics), len(want))
		}
		for _, m := range want {
			if v, ok := metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s missing or not in %s", traced, m.Name, m.Unit)
			}
		}
	}
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func benchmarkJSON(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not beside the benchmark: %v", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step: the
// same workloads, metrics, units and bounds.
func TestBenchmarkJSON(t *testing.T) {
	s := benchmarkJSON(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	var code []benchMetric
	for _, m := range endToEnd {
		if m.name != "failed_frac" { // zero whenever correct, so not a contract metric
			bound := m.bound
			code = append(code, benchMetric{Name: m.name, Unit: m.unit, Better: "lower", Bound: &bound})
		}
	}
	if len(s.EndToEnd) != len(code) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, want %d", len(s.EndToEnd), len(code))
	}
	for i, want := range code {
		got := s.EndToEnd[i]
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better || got.Bound == nil || *got.Bound != *want.Bound {
			t.Errorf("end_to_end[%d] = %s %s %s %v, want %s %s %s %v", i, got.Name, got.Unit, got.Better, got.Bound, want.Name, want.Unit, want.Better, *want.Bound)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, want %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := s.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
