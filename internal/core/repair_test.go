package core

import (
	"testing"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

func configured(t testing.TB, m, n int, s Scheme) *ib.Subnet {
	t.Helper()
	tr := topology.MustNew(m, n)
	sn, err := (&ib.SubnetManager{Tree: tr, Engine: s}).Configure()
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// TestTraceSubnetMatchesScheme: on a healthy fabric the LFT walk and the
// closed-form walk agree for every (src, dst).
func TestTraceSubnetMatchesScheme(t *testing.T) {
	for _, s := range Schemes() {
		sn := configured(t, 4, 3, s)
		tr := sn.Tree
		for a := 0; a < tr.Nodes(); a++ {
			for b := 0; b < tr.Nodes(); b++ {
				if a == b {
					continue
				}
				dlid := sn.DLID(topology.NodeID(a), topology.NodeID(b))
				p1, err := TraceLID(tr, s, topology.NodeID(a), dlid)
				if err != nil {
					t.Fatal(err)
				}
				p2, err := TraceSubnet(sn, topology.NodeID(a), dlid)
				if err != nil {
					t.Fatal(err)
				}
				if p1.Render(nil) != p2.Render(nil) {
					t.Fatalf("%s %d->%d: scheme %s vs subnet %s",
						s.Name(), a, b, p1.Render(tr), p2.Render(tr))
				}
			}
		}
	}
}

// TestRepairSubnetUpLinkFault: after failing an ascending link and running
// the repair, every pair that previously crossed it is delivered again via
// a detour — with no table entry left pointing at the dead link's up side.
func TestRepairSubnetUpLinkFault(t *testing.T) {
	sn := configured(t, 4, 3, NewMLID())
	tr := sn.Tree

	// Fail node 0's leaf switch's first up-port.
	leaf, _ := tr.NodeAttachment(0)
	failedPort := tr.DownPorts(leaf) // first up-port
	faults := NewFaultSet()
	faults.FailLink(tr, leaf, failedPort)

	remapped, broken, err := RepairSubnet(sn, faults)
	if err != nil {
		t.Fatal(err)
	}
	if remapped == 0 {
		t.Fatal("nothing remapped")
	}
	// The ascending side is fully repaired, but the same physical link's
	// descending direction (the parent's down-port into this leaf) has no
	// local alternative: those entries — the leaf's nodes' DLIDs at the
	// parent — must be reported broken, and nothing else.
	parent := tr.SwitchNeighbor(leaf, failedPort)
	if parent.Kind != topology.KindSwitch {
		t.Fatal("test setup: up-port does not reach a switch")
	}
	for _, be := range broken {
		if be.Switch != parent.Switch {
			t.Fatalf("broken entry at %s, want all at parent %s",
				tr.SwitchLabel(be.Switch), tr.SwitchLabel(parent.Switch))
		}
	}
	if len(broken) == 0 {
		t.Fatal("parent's descending entries not reported broken")
	}

	// Combined recovery: switch-level repair plus source-side LID
	// reselection serves every pair over the programmed tables.
	for a := 0; a < tr.Nodes(); a++ {
		for b := 0; b < tr.Nodes(); b++ {
			if a == b {
				continue
			}
			if !subnetPairServed(sn, faults, topology.NodeID(a), topology.NodeID(b)) {
				t.Fatalf("pair %d->%d unservable after repair + reselection", a, b)
			}
		}
	}
}

// subnetPairServed reports whether some LID of dst routes src's packet to
// dst over the subnet's programmed tables without crossing a failed link.
func subnetPairServed(sn *ib.Subnet, faults *FaultSet, src, dst topology.NodeID) bool {
	r := sn.Endports[dst]
	for off := 0; off < r.Count(); off++ {
		p, err := TraceSubnet(sn, src, r.Base+ib.LID(off))
		if err == nil && p.Dst == dst && !blocked(faults, p) {
			return true
		}
	}
	return false
}

// TestRepairSubnetSpreadsDetours: repaired entries distribute over the
// surviving up-ports rather than piling onto one.
func TestRepairSubnetSpreadsDetours(t *testing.T) {
	sn := configured(t, 8, 2, NewMLID())
	tr := sn.Tree
	leaf, _ := tr.NodeAttachment(0)
	down := tr.DownPorts(leaf)
	faults := NewFaultSet()
	faults.FailLink(tr, leaf, down) // fail first of 4 up-ports

	if _, _, err := RepairSubnet(sn, faults); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	lft := sn.LFTs[leaf]
	for lid := 1; lid < lft.Size(); lid++ {
		phys, err := lft.Lookup(ib.LID(lid))
		if err != nil {
			continue
		}
		k := int(phys) - 1
		if k >= down {
			counts[k]++
		}
	}
	if counts[down] != 0 {
		t.Fatalf("entries still point at failed port: %v", counts)
	}
	used := 0
	for k, c := range counts {
		if k > down && c > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("detours not spread: %v", counts)
	}
}

// TestRepairSubnetDownLinkIrreparable: a failed descending link has no local
// alternative; the repair must report the affected entries as broken.
func TestRepairSubnetDownLinkIrreparable(t *testing.T) {
	sn := configured(t, 4, 2, NewMLID())
	tr := sn.Tree
	// Fail a root's down-link.
	roots := tr.SwitchesWithPrefix(nil, 0)
	faults := NewFaultSet()
	faults.FailLink(tr, roots[0], 0)

	_, broken, err := RepairSubnet(sn, faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) == 0 {
		t.Fatal("down-link fault reported no broken entries")
	}
	for _, be := range broken {
		// The fault registered both endpoints; entries are broken at
		// whichever switch forwards downward across the cut.
		if !faults.Dead(be.Switch, 0) && be.Switch != roots[0] {
			// The lower endpoint ascends; its up entries were remappable,
			// so broken entries must sit at the root side.
			t.Fatalf("unexpected broken entry %+v", be)
		}
	}
	// Source-side reselection still serves every pair (MLID has other LCAs).
	served, total, err := Reachability(tr, NewMLID(), faults)
	if err != nil {
		t.Fatal(err)
	}
	if served != total {
		t.Fatalf("MLID reselection served %d/%d", served, total)
	}
}

// TestRepairSubnetAllUpLinksDead: when every up-port of a leaf is dead, its
// ascending entries are irreparable.
func TestRepairSubnetAllUpLinksDead(t *testing.T) {
	sn := configured(t, 4, 2, NewSLID())
	tr := sn.Tree
	leaf, _ := tr.NodeAttachment(0)
	faults := NewFaultSet()
	for k := tr.DownPorts(leaf); k < tr.M(); k++ {
		faults.FailLink(tr, leaf, k)
	}
	remapped, broken, err := RepairSubnet(sn, faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) == 0 {
		t.Fatalf("isolated leaf reported no broken entries (remapped %d)", remapped)
	}
}
