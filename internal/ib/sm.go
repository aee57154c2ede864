package ib

import (
	"fmt"

	"mlid/internal/topology"
)

// SubnetManager plays the role of the IBA subnet manager (SM) for a simulated
// subnet: it assigns each endport its base LID and LMC and programs every
// switch's linear forwarding table according to a routing engine. The
// paper's MLID and SLID schemes both run underneath this SM, and it is the
// one place a routing engine becomes a subnet: the MAD subnet manager
// (package sm) uploads the plan it computes over the recognized tree.
type SubnetManager struct {
	// Tree is the fabric the SM manages.
	Tree *topology.Tree
	// Engine computes LID assignments and forwarding entries.
	Engine RoutingEngine
}

// Configure computes the subnet's plan: LID assignment and forwarding-table
// programming, one whole table per engine FillLFT call. The returned subnet
// is validated, so a table that routes an assigned LID nowhere or to a
// port outside 1..m is an error.
func (sm *SubnetManager) Configure() (*Subnet, error) {
	t := sm.Tree
	eng := sm.Engine

	lmc := eng.LMC(t)
	if lmc > MaxLMC {
		return nil, fmt.Errorf("ib: scheme %s requires LMC %d > architectural maximum %d (fabric names more paths than the 3-bit LMC field can address)",
			eng.Name(), lmc, MaxLMC)
	}
	space := eng.LIDSpace(t)
	if space > 1<<16 {
		return nil, fmt.Errorf("%w: scheme %s needs %d LIDs, beyond the 16-bit space (%d)",
			ErrLIDSpaceExhausted, eng.Name(), space, 1<<16)
	}

	sn := &Subnet{
		Tree:     t,
		Engine:   eng,
		Endports: make([]LIDRange, t.Nodes()),
		LFTs:     make([]*LFT, t.Switches()),
	}
	for p := range sn.Endports {
		sn.Endports[p] = LIDRange{Base: eng.BaseLID(t, topology.NodeID(p)), LMC: lmc}
	}
	if err := sn.assemble(space); err != nil {
		return nil, err
	}
	for s := range sn.LFTs {
		lft := NewLFT(space)
		eng.FillLFT(t, topology.SwitchID(s), lft.ports)
		sn.LFTs[s] = lft
	}
	if err := sn.Validate(); err != nil {
		return nil, err
	}
	return sn, nil
}
