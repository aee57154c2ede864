package ib

import (
	"fmt"
	"sync"

	"mlid/internal/topology"
)

// RoutingEngine is implemented by a routing scheme (package core provides the
// paper's MLID scheme and the SLID baseline). The subnet manager consults it
// to size the LID space, to hand out endport LID ranges, and to fill each
// switch's linear forwarding table.
type RoutingEngine interface {
	// Name identifies the scheme ("MLID", "SLID", ...).
	Name() string
	// LMC returns the LID Mask Control value every endport is configured
	// with; each endport owns 1<<LMC consecutive LIDs.
	LMC(t *topology.Tree) uint8
	// BaseLID returns the first LID of the node's range. Base LIDs must be
	// non-zero, aligned so ranges do not overlap, and distinct per node.
	BaseLID(t *topology.Tree, n topology.NodeID) LID
	// LIDSpace returns the exclusive upper bound of assigned LIDs, i.e. the
	// size every forwarding table must have.
	LIDSpace(t *topology.Tree) int
	// OutPortAbstract returns the abstract (0-based) output port a switch
	// uses for the DLID, or ok=false when the scheme does not route that LID.
	OutPortAbstract(t *topology.Tree, sw topology.SwitchID, lid LID) (port int, ok bool)
	// DLID performs the scheme's path selection: the destination LID a
	// source uses when sending to dst. src == dst is allowed and returns the
	// destination's base LID.
	DLID(t *topology.Tree, src, dst topology.NodeID) LID
}

// Subnet is a fully configured InfiniBand subnet over an FT(m, n) fabric:
// every endport has its LID range and every switch its forwarding table.
type Subnet struct {
	Tree   *topology.Tree
	Engine RoutingEngine

	// Endports[p] is the LID range of processing node p.
	Endports []LIDRange
	// LFTs[s] is the linear forwarding table of switch s.
	LFTs []*LFT

	lidOwner []int32 // LID -> node PID, or -1

	// portIdx is the tables' reverse index, built once on first use (see
	// PortLIDIndex): Configure never builds it, since most subnets are
	// never repaired.
	portIdxOnce sync.Once
	portIdx     *PortLIDIndex
}

// FinishAssembly rebuilds the subnet's LID-ownership index from its endport
// ranges and validates the result. It is used by subnet managers that
// assemble a Subnet from device read-backs (see package sm) rather than
// through Configure.
func (s *Subnet) FinishAssembly() error {
	space := 0
	for _, lft := range s.LFTs {
		if lft == nil {
			return fmt.Errorf("ib: subnet assembly missing a forwarding table")
		}
		if lft.Size() > space {
			space = lft.Size()
		}
	}
	for _, r := range s.Endports {
		if end := int(r.Base) + r.Count(); end > space {
			space = end
		}
	}
	s.lidOwner = make([]int32, space)
	for i := range s.lidOwner {
		s.lidOwner[i] = -1
	}
	for p, r := range s.Endports {
		for off := 0; off < r.Count(); off++ {
			lid := int(r.Base) + off
			if lid >= space {
				return fmt.Errorf("ib: node %d LID %d beyond assembled space %d", p, lid, space)
			}
			if s.lidOwner[lid] >= 0 {
				return fmt.Errorf("ib: LID %d owned by nodes %d and %d", lid, s.lidOwner[lid], p)
			}
			s.lidOwner[lid] = int32(p)
		}
	}
	return s.Validate()
}

// OwnerOf returns the node owning the LID, if any.
func (s *Subnet) OwnerOf(lid LID) (topology.NodeID, bool) {
	if int(lid) >= len(s.lidOwner) || s.lidOwner[lid] < 0 {
		return 0, false
	}
	return topology.NodeID(s.lidOwner[lid]), true
}

// OutPort looks up the physical output port a switch forwards the DLID to.
func (s *Subnet) OutPort(sw topology.SwitchID, dlid LID) (uint8, error) {
	return s.LFTs[sw].Lookup(dlid)
}

// DLID is the subnet-level path selection: the LID a source should place in
// the DLID field when sending to dst.
func (s *Subnet) DLID(src, dst topology.NodeID) LID {
	return s.Engine.DLID(s.Tree, src, dst)
}

// LIDSpace returns the size of the subnet's LID table.
func (s *Subnet) LIDSpace() int { return len(s.lidOwner) }

// Validate cross-checks the subnet invariants: non-overlapping LID ranges,
// complete tables, and table entries within each switch's physical ports.
func (s *Subnet) Validate() error {
	t := s.Tree
	owner := make([]int32, s.LIDSpace())
	for i := range owner {
		owner[i] = -1
	}
	for p, r := range s.Endports {
		if r.Base == 0 {
			return fmt.Errorf("ib: node %d assigned reserved base LID 0", p)
		}
		for off := 0; off < r.Count(); off++ {
			lid := int(r.Base) + off
			if lid >= s.LIDSpace() {
				return fmt.Errorf("ib: node %d LID %d beyond table size %d", p, lid, s.LIDSpace())
			}
			if owner[lid] >= 0 {
				return fmt.Errorf("ib: LID %d owned by both node %d and node %d", lid, owner[lid], p)
			}
			owner[lid] = int32(p)
		}
	}
	for sw, lft := range s.LFTs {
		if lft.Size() != s.LIDSpace() {
			return fmt.Errorf("ib: switch %d table size %d != %d", sw, lft.Size(), s.LIDSpace())
		}
		for lid := 1; lid < lft.Size(); lid++ {
			port := lft.ports[lid]
			if port == PortNone {
				if owner[lid] >= 0 {
					return fmt.Errorf("ib: switch %d has no route for assigned LID %d", sw, lid)
				}
				continue
			}
			if port == 0 || int(port) > t.M() {
				return fmt.Errorf("ib: switch %d LID %d routed to invalid physical port %d", sw, lid, port)
			}
		}
	}
	return nil
}
