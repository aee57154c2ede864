package sim

import (
	"runtime"
	"testing"

	"mlid/internal/core"
	"mlid/internal/traffic"
)

// gcTwice runs two garbage collections, enough to empty a sync.Pool: the
// arena pool must keep its idle arenas through them.
func gcTwice() {
	runtime.GC()
	runtime.GC()
}

// TestRunSmallAllocs pins the steady-state allocations of one small run
// (BenchmarkRunSmall's configuration), warm and with two garbage collections
// before each run. Before run state was recycled, every run rebuilt its
// arrays, slabs, calendar, per-node generators and two dense latency
// histograms: 247 allocations. With the arena kept, what remains is the
// Result's latency octaves: 1. An arena pool that the collections empty
// costs 94.
func TestRunSmallAllocs(t *testing.T) {
	cfg := runSmallConfig(t)
	for _, gc := range []bool{false, true} {
		allocs := testing.AllocsPerRun(5, func() { // AllocsPerRun warms up with one run first
			if gc {
				gcTwice()
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		const want = 1
		if allocs > want {
			t.Errorf("collections between runs %v: %.0f allocations per run, want <= %d", gc, allocs, want)
		}
	}
}

// TestSaturatedSweepAllocs pins the allocations of a saturated sweep's
// steady state: two FT(8,2) points under the paper's 50%-centric pattern run
// back to back on one recycled arena, at different loads and VL counts as a
// figure sweep's points are, so the hotspot-blocked sources build open-loop
// backlogs of different depths across a different number of source queues.
// Queues thread packets through pkt.next and own no storage, and the latency
// histogram keeps its rows, so a pass allocates only each Result's latency
// octaves: 2. Source queues that own append-grown arrays reallocate
// whenever a point's backlog outgrows the arrays the other point left (96
// allocations per pass with grown arrays handed between runs). The pass
// also runs with two garbage collections before it: an arena pool that they
// empty costs about 120.
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
	for _, gc := range []bool{false, true} {
		allocs := testing.AllocsPerRun(10, func() {
			if gc {
				gcTwice()
			}
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
		const want = 2
		if allocs > want {
			t.Errorf("collections between passes %v: %.0f allocations per pass, want <= %d", gc, allocs, want)
		}
	}
}
