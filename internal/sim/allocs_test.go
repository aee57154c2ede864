//go:build !race

// The race detector makes sync.Pool drop a random share of the state put
// back, so allocation counts are only meaningful without it.

package sim

import (
	"testing"

	"mlid/internal/core"
	"mlid/internal/traffic"
)

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

// TestSaturatedSweepAllocs bounds the allocations of a saturated sweep's
// steady state: two FT(8,2) points under the paper's 50%-centric pattern run
// back to back on one recycled arena, at different loads and VL counts as a
// figure sweep's points are, so the hotspot-blocked sources build open-loop
// backlogs of different depths across a different number of source queues.
// Queues thread packets through pkt.next and own no storage, and the latency
// histogram keeps its rows, so a warm pass allocates nothing. Source queues
// that own append-grown arrays reallocate whenever a point's backlog
// outgrows the arrays the other point left (96 allocations per pass with
// grown arrays handed between runs). A pass that finds simPool emptied by a
// GC costs about 120 allocations; averaged over ten passes the bound leaves
// room for two.
func TestSaturatedSweepAllocs(t *testing.T) {
	sn := mustSubnet(t, 8, 2, core.NewMLID())
	cfg := Config{
		Subnet:    sn,
		Pattern:   traffic.Centric{Nodes: sn.Tree.Nodes(), Hotspot: 0, Fraction: 0.5},
		WarmupNs:  10_000,
		MeasureNs: 50_000,
		Seed:      1,
	}
	saturated := true
	allocs := testing.AllocsPerRun(10, func() {
		for _, pt := range []struct {
			vls  int
			load float64
		}{{2, 0.8}, {1, 0.4}} {
			cfg.DataVLs, cfg.OfferedLoad = pt.vls, pt.load
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			saturated = saturated && res.Saturated
		}
	})
	if !saturated {
		t.Fatal("a point is not saturated: no source backlog to bound")
	}
	const bound = 24
	if allocs > bound {
		t.Errorf("%.0f allocations per pass, want <= %d", allocs, bound)
	}
}
