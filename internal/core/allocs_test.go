//go:build !race

// Allocation counts under the race detector include its instrumentation,
// so they are checked without it.

package core

import (
	"testing"

	"mlid/internal/topology"
)

// TestSelectLIDAllocs: path-free selection allocates nothing. On FT(8,3)
// MLID with leaf up-links, a root's descending link and a node link down,
// SelectLID and UsableOffsets from node 0 to every destination — canonical
// hits, cyclic rescans and stranded pairs alike — make 0 allocations.
func TestSelectLIDAllocs(t *testing.T) {
	tr := topology.MustNew(8, 3)
	s := NewMLID()
	faults := NewFaultSet()
	for _, node := range []topology.NodeID{0, 37, 90} {
		leaf, _ := tr.NodeAttachment(node)
		faults.FailLink(tr, leaf, tr.H()+int(node)%tr.H())
	}
	faults.FailLink(tr, 0, 3) // a root's descending link
	sw, port := tr.NodeAttachment(100)
	faults.FailLink(tr, sw, port)

	var served, usable int
	allocs := testing.AllocsPerRun(5, func() {
		served, usable = 0, 0
		for d := 1; d < tr.Nodes(); d++ {
			if _, ok := SelectLID(tr, s, 0, topology.NodeID(d), faults); ok {
				served++
			}
			if _, _, _, mask := UsableOffsets(tr, s, 0, topology.NodeID(d), faults); mask != 0 {
				usable++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%.0f allocations per sweep of %d selections, want 0", allocs, 2*(tr.Nodes()-1))
	}
	if served != tr.Nodes()-2 || usable != served {
		t.Errorf("served %d, usable %d of %d destinations; want all but the stranded node", served, usable, tr.Nodes()-1)
	}
}

// TestRepairIncrementalAllocs: a warm repair state absorbs a fault and its
// revival without allocating. On FT(8,3) and FT(32,2) MLID, with a leaf
// up-link (remapped entries at the leaf, broken ones at its peer) and a
// second link at that peer down, one cycle — the dirty switches, the
// repair, the repair target's tables, then the same back to pristine —
// makes 0 allocations: the overlays, broken lists, delta buffer, dirty list
// and tables are the state's, at their high-water sizes after the first
// cycle.
func TestRepairIncrementalAllocs(t *testing.T) {
	for _, net := range [][2]int{{8, 3}, {32, 2}} {
		sn := configured(t, net[0], net[1], NewMLID())
		tr := sn.Tree
		leaf, _ := tr.NodeAttachment(0)
		fs, none := NewFaultSet(), NewFaultSet()
		fs.FailLink(tr, leaf, tr.H())
		peer := tr.SwitchNeighbor(leaf, tr.H())
		fs.FailLink(tr, peer.Switch, (peer.Port+1)%tr.M())
		st := NewRepairState(sn)
		var changed int
		step := func(prev, cur *FaultSet) {
			deltas, err := st.RepairIncremental(cur, st.DirtySwitches(prev, cur))
			if err != nil {
				t.Fatal(err)
			}
			changed += len(deltas)
			if _, err := st.TargetLFTs(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			step(none, fs)
			step(fs, none)
		})
		if allocs != 0 {
			t.Errorf("FT(%d,%d): %.0f allocations per fail/revive cycle, want 0", net[0], net[1], allocs)
		}
		if changed == 0 || st.Remapped() != 0 || st.Broken() != 0 {
			t.Errorf("FT(%d,%d): %d deltas, %d remapped and %d broken after the cycles; want deltas and a pristine end",
				net[0], net[1], changed, st.Remapped(), st.Broken())
		}
	}
}
