//go:build !race

// The race detector makes sync.Pool drop a random share of the state put
// back, so allocation counts are only meaningful without it.

package verify_test

import (
	"testing"

	"mlid/internal/verify"
)

// TestVerifyEpochAllocs bounds the allocations of one per-epoch Run on
// BenchmarkVerifyEpoch's inputs. Before Run recycled its state it built the
// neighbor, dead-link and owner tables, the walk's claim and dependency
// bitsets, the adjacency lists and the cycle-search arrays afresh: 33
// allocations healthy, 512 repaired. With the state pooled a healthy Run
// allocates 1 (the report), and a repaired one 466: the report and its
// formatted findings' messages, locations and witnesses. The bounds leave room
// for a GC that empties the pool mid-measurement.
func TestVerifyEpochAllocs(t *testing.T) {
	healthy, repaired, opt := epochInputs(t)
	for _, c := range []struct {
		name  string
		in    verify.Input
		bound float64
	}{{"healthy", healthy, 33 / 2}, {"repaired", repaired, 466 + 33/2}} {
		allocs := testing.AllocsPerRun(5, func() { // AllocsPerRun warms up with one run first
			if _, err := verify.Run(c.in, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.bound {
			t.Errorf("%s: %.0f allocations per Run, want <= %.0f", c.name, allocs, c.bound)
		}
	}
}
