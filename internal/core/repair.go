package core

import (
	"fmt"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// BrokenEntry names a forwarding-table entry that cannot be repaired
// locally: the failed link is on the descending phase, where the fat-tree
// offers exactly one child toward the destination. Such DLIDs need
// source-side reselection (SelectDLID) or an SM-level path recomputation.
type BrokenEntry struct {
	Switch topology.SwitchID
	DLID   ib.LID
}

// RepairSubnet rewrites the subnet's forwarding tables around the failed
// links, the way a subnet manager reacts to port-down traps.
//
// The repair uses a fat-tree-specific property of the m-port n-tree: during
// the ascending phase any live up-port is correct, because the case-1
// (descend) test at every level l only inspects switch label digits below l,
// which an ascent detour never alters — the packet simply reaches a
// different least common ancestor and descends from there. Ascending
// entries pointing at failed links are therefore remapped to the next live
// up-port (spread by DLID so repaired traffic does not pile onto one
// survivor). Descending entries have no local alternative and are reported
// as broken; entries for them are left in place pointing at the dead link
// so the damage is observable rather than silently misrouted.
//
// It returns the number of remapped entries and the irreparable ones.
func RepairSubnet(sn *ib.Subnet, faults *FaultSet) (remapped int, broken []BrokenEntry, err error) {
	t := sn.Tree
	for s := 0; s < t.Switches(); s++ {
		sw := topology.SwitchID(s)
		down := t.DownPorts(sw)
		lft := sn.LFTs[s]
		// Collect the live up-ports once per switch.
		var liveUp []int
		for k := down; k < t.M(); k++ {
			if !faults.Dead(sw, k) {
				liveUp = append(liveUp, k)
			}
		}
		for lid := 1; lid < lft.Size(); lid++ {
			phys, lookupErr := lft.Lookup(ib.LID(lid))
			if lookupErr != nil {
				continue
			}
			k := int(phys) - 1
			if !faults.Dead(sw, k) {
				continue
			}
			if k < down {
				broken = append(broken, BrokenEntry{Switch: sw, DLID: ib.LID(lid)})
				continue
			}
			if len(liveUp) == 0 {
				broken = append(broken, BrokenEntry{Switch: sw, DLID: ib.LID(lid)})
				continue
			}
			alt := liveUp[lid%len(liveUp)]
			if setErr := lft.Set(ib.LID(lid), uint8(alt+1)); setErr != nil {
				return remapped, broken, fmt.Errorf("core: repair switch %d lid %d: %w", s, lid, setErr)
			}
			remapped++
		}
	}
	return remapped, broken, nil
}

// TraceSubnet walks the subnet's programmed forwarding tables (not the
// scheme's closed form) from src for the given DLID — the ground truth for
// repaired or hand-modified tables. It is TraceLID over the tables, with
// the same loop, port and up*/down* checks.
func TraceSubnet(sn *ib.Subnet, src topology.NodeID, dlid ib.LID) (Path, error) {
	return TraceLID(sn.Tree, tableScheme{sn.Engine, sn}, src, dlid)
}

// tableScheme is the subnet's scheme with its forwarding decision read
// from the programmed tables, so TraceSubnet walks them through walkLID.
type tableScheme struct {
	Scheme
	sn *ib.Subnet
}

// OutPortAbstract implements Scheme from the switch's table entry.
func (s tableScheme) OutPortAbstract(_ *topology.Tree, sw topology.SwitchID, lid ib.LID) (int, bool) {
	phys := s.sn.LFTs[sw].Port(lid)
	return int(phys) - 1, phys != ib.PortNone
}
