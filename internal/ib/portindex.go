package ib

import "mlid/internal/topology"

// PortLIDIndex is the reverse of a subnet's forwarding tables: for each
// (switch, abstract out-port), the ascending list of DLIDs whose entry at
// that switch exits through the port. A dead link then names exactly the
// entries it breaks instead of the whole LID space. The lists share one flat
// array: slot i's LIDs are lids[off[i]:off[i+1]].
type PortLIDIndex struct {
	m    int
	off  []int32
	lids []LID
}

// PortLIDIndex returns the subnet's reverse index, built from its tables on
// the first call and shared by every later caller, concurrent ones included
// (the incremental repair states of package core all read the one index of
// their pristine subnet). The index reflects the tables as they were at that
// first call, so it is only meaningful for a subnet whose tables are never
// rewritten in place.
func (s *Subnet) PortLIDIndex() *PortLIDIndex {
	s.portIdxOnce.Do(func() { s.portIdx = buildPortLIDIndex(s) })
	return s.portIdx
}

// buildPortLIDIndex scans the subnet's forwarding tables twice: once to
// count each slot's entries, then, with off[i] advanced to the end of slot i,
// once more in descending LID order, stepping each slot's offset back to its
// start as it fills. The index costs two allocations whatever the fabric's
// size.
func buildPortLIDIndex(sn *Subnet) *PortLIDIndex {
	t := sn.Tree
	m, slots := t.M(), t.Switches()*t.M()
	x := &PortLIDIndex{m: m, off: make([]int32, slots+1)}
	for s := 0; s < t.Switches(); s++ {
		lft := sn.LFTs[s]
		for lid := 1; lid < lft.Size(); lid++ {
			if k := outPort(lft, lid, m); k >= 0 {
				x.off[s*m+k]++
			}
		}
	}
	for i := 1; i <= slots; i++ {
		x.off[i] += x.off[i-1]
	}
	x.lids = make([]LID, x.off[slots])
	for s := 0; s < t.Switches(); s++ {
		lft := sn.LFTs[s]
		for lid := lft.Size() - 1; lid >= 1; lid-- {
			if k := outPort(lft, lid, m); k >= 0 {
				x.off[s*m+k]--
				x.lids[x.off[s*m+k]] = LID(lid)
			}
		}
	}
	return x
}

// outPort returns the abstract out-port of lid's entry in lft, or -1 when the
// entry is unrouted or names no port of an m-port switch.
func outPort(lft *LFT, lid, m int) int {
	phys := lft.Port(LID(lid))
	if phys == PortNone || phys == 0 || int(phys) > m {
		return -1
	}
	return int(phys) - 1
}

// LIDs returns the DLIDs routed through (sw, abstract port), ascending. The
// returned slice is shared and capped, so an append to it copies; callers
// must not mutate it.
func (x *PortLIDIndex) LIDs(sw topology.SwitchID, port int) []LID {
	i := int(sw)*x.m + port
	return x.lids[x.off[i]:x.off[i+1]:x.off[i+1]]
}
