//go:build !race

// The race detector makes sync.Pool drop a random share of the state put
// back, so allocation counts are only meaningful without it.

package sim

import "testing"

// TestRunSmallAllocs bounds the steady-state allocations of one small run
// (BenchmarkRunSmall's configuration). Before run state was recycled, every
// run rebuilt its arrays, slabs, calendar, per-node generators and two dense
// latency histograms: 247 allocations. With the arena pooled, what remains is
// per-run bookkeeping (the fault state's cloned tables are absent here, the
// latency rows are allocated lazily); the bound is a quarter of the old
// count, leaving room for a GC that empties the pool mid-measurement.
func TestRunSmallAllocs(t *testing.T) {
	cfg := runSmallConfig(t)
	allocs := testing.AllocsPerRun(5, func() { // AllocsPerRun warms up with one run first
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 247 / 4
	if allocs > bound {
		t.Errorf("%.0f allocations per run, want <= %d", allocs, bound)
	}
}
