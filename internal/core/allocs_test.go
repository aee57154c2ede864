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
