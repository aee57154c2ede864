//go:build !race

// Allocation counts under the race detector include its instrumentation,
// so they are checked without it.

package ib_test

import (
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
)

// TestConfigureAllocs: Configure allocates per switch, never per LID. MLID
// gives each node up to 2^6 LIDs on these fabrics and SLID one, so equal
// counts under both schemes mean no allocation scales with the LID space;
// the bound holds the per-switch cost to the table's two allocations.
func TestConfigureAllocs(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 3}, {16, 2}, {32, 2}} {
		tr := topology.MustNew(dims[0], dims[1])
		allocs := make(map[string]float64)
		for _, s := range core.Schemes() {
			allocs[s.Name()] = testing.AllocsPerRun(3, func() {
				if _, err := (&ib.SubnetManager{Tree: tr, Engine: s}).Configure(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs["MLID"] != allocs["SLID"] {
			t.Errorf("%s: Configure allocates %v times under MLID, %v under SLID", tr, allocs["MLID"], allocs["SLID"])
		}
		if limit := float64(2*tr.Switches() + 4); allocs["MLID"] > limit {
			t.Errorf("%s: Configure allocates %v times, want at most %v (two per switch)", tr, allocs["MLID"], limit)
		}
	}
}
