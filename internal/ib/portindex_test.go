package ib_test

import (
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
)

// TestPortLIDIndexMatchesScan: the flat reverse index lists, for every
// (switch, out-port), exactly the LIDs a per-entry Lookup scan of the
// pristine tables routes through it, in ascending order.
func TestPortLIDIndexMatchesScan(t *testing.T) {
	for _, scheme := range core.Schemes() {
		for _, tr := range []*topology.Tree{
			topology.MustNew(4, 2),
			topology.MustNew(8, 3),
			topology.MustNew(16, 2),
		} {
			sn, err := (&ib.SubnetManager{Tree: tr, Engine: scheme}).Configure()
			if err != nil {
				t.Fatal(err)
			}
			x := sn.PortLIDIndex()
			want := make([][]ib.LID, tr.Switches()*tr.M())
			for sw, lft := range sn.LFTs {
				for lid := 0; lid < lft.Size(); lid++ {
					if phys, err := lft.Lookup(ib.LID(lid)); err == nil {
						slot := sw*tr.M() + int(phys) - 1
						want[slot] = append(want[slot], ib.LID(lid))
					}
				}
			}
			for slot, lids := range want {
				sw, port := topology.SwitchID(slot/tr.M()), slot%tr.M()
				got := x.LIDs(sw, port)
				if len(got) != len(lids) || cap(got) != len(got) {
					t.Fatalf("%s FT(%d,%d) switch %d port %d: %d LIDs (cap %d), want %d",
						scheme.Name(), tr.M(), tr.N(), sw, port, len(got), cap(got), len(lids))
				}
				for i := range lids {
					if got[i] != lids[i] {
						t.Fatalf("%s FT(%d,%d) switch %d port %d: LID[%d] = %d, want %d",
							scheme.Name(), tr.M(), tr.N(), sw, port, i, got[i], lids[i])
					}
				}
			}
			if sn.PortLIDIndex() != x {
				t.Fatalf("%s FT(%d,%d): a second call rebuilt the index", scheme.Name(), tr.M(), tr.N())
			}
		}
	}
}
