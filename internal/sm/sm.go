// Package sm implements a full subnet manager over the management plane:
// unlike ib.SubnetManager (which reads the topology object directly, as an
// oracle), this SM brings a fabric up the way a real one does —
//
//  1. it explores the fabric with directed-route NodeInfo probes, learning
//     only GUIDs, port counts and link endpoints (package discover);
//  2. it recognizes the discovered graph as an m-port n-tree, recovering
//     the FT(m, n) labeling from the edges' port numbers, and computes its
//     target subnet with ib.SubnetManager over the *recognized* tree;
//  3. it assigns every endport the target's base LID and LMC with PortInfo
//     Set SMPs;
//  4. it programs every switch's linear forwarding table with the target's
//     non-empty 64-entry LinearForwardingTable blocks; and
//  5. it reads every endport and every table block back and fails on any
//     difference from the target before declaring the subnet operational.
//
// The result is the oracle SM's subnet, installed and confirmed with zero
// out-of-band knowledge — the strongest end-to-end evidence that the
// addressing, path-selection and forwarding-table equations only need what
// a real InfiniBand subnet manager can see.
package sm

import (
	"fmt"
	"sort"

	"mlid/internal/discover"
	"mlid/internal/ib"
	"mlid/internal/topology"
)

// sortedGUIDs fixes the order every bring-up phase walks the fabric in.
// The labeling maps are keyed by GUID, and Go randomizes map iteration —
// fine for the resulting tables (each entry is written exactly once), but
// the *management traffic* would then leave the SM in a different order
// every run, which breaks SMP-trace reproducibility and makes bring-up
// regressions undiffable. GUID order is the canonical sweep order.
func sortedGUIDs[ID any](byGUID map[uint64]ID) []uint64 {
	guids := make([]uint64, 0, len(byGUID))
	for guid := range byGUID {
		guids = append(guids, guid)
	}
	sort.Slice(guids, func(i, j int) bool { return guids[i] < guids[j] })
	return guids
}

// BringupStats counts the management traffic one Configure run needed — a
// measure of SM cost that scales with fabric size.
type BringupStats struct {
	// Probes counts discovery NodeInfo Gets; Gets and Sets the remaining
	// SMPs (PortInfo, SwitchInfo, LFT blocks) by method.
	Probes, Gets, Sets int
	// MaxHops is the longest directed route used.
	MaxHops int
}

// Total returns the number of SMPs exchanged.
func (b BringupStats) Total() int { return b.Probes + b.Gets + b.Sets }

// Fabric is the management plane the SM drives: Send carries one SMP from
// the origin channel adapter along its directed route and leaves the
// response in smp. *ib.SMAFabric, the device agents behind a directed-route
// transport, implements it.
type Fabric interface {
	Send(origin topology.NodeID, smp *ib.SMP) error
}

// MADSubnetManager configures a fabric exclusively through SMPs.
type MADSubnetManager struct {
	// Fabric is the management plane.
	Fabric Fabric
	// Origin is the channel adapter hosting the SM.
	Origin topology.NodeID
	// Engine computes the LID assignment and forwarding entries.
	Engine ib.RoutingEngine
	// Stats is filled by Configure.
	Stats BringupStats
}

// prober adapts the SMP transport to discover.Prober.
type prober struct {
	fabric Fabric
	origin topology.NodeID
	stats  *BringupStats
}

// Probe implements discover.Prober with a NodeInfo SubnGet.
func (p prober) Probe(path []uint8) (discover.Device, error) {
	smp := &ib.SMP{Method: ib.MethodGet, Attribute: ib.AttrNodeInfo}
	if len(path) >= ib.MaxHops {
		return discover.Device{}, fmt.Errorf("sm: probe path too long (%d hops)", len(path))
	}
	smp.HopCount = uint8(len(path))
	copy(smp.InitialPath[1:], path)
	p.stats.Probes++
	if len(path) > p.stats.MaxHops {
		p.stats.MaxHops = len(path)
	}
	if err := p.fabric.Send(p.origin, smp); err != nil {
		return discover.Device{}, err
	}
	if smp.Status != ib.StatusOK {
		return discover.Device{}, fmt.Errorf("sm: NodeInfo probe failed with status %#x", smp.Status)
	}
	ni := ib.DecodeNodeInfo(&smp.Data)
	return discover.Device{
		GUID:        ni.GUID,
		IsSwitch:    ni.Type == ib.NodeTypeSwitch,
		NumPorts:    int(ni.NumPorts),
		ArrivalPort: int(ni.LocalPort),
	}, nil
}

// send delivers one SMP along a stored route and checks its status.
func (sm *MADSubnetManager) send(path []uint8, smp *ib.SMP) error {
	smp.HopCount = uint8(len(path))
	copy(smp.InitialPath[1:], path)
	if smp.Method == ib.MethodSet {
		sm.Stats.Sets++
	} else {
		sm.Stats.Gets++
	}
	if len(path) > sm.Stats.MaxHops {
		sm.Stats.MaxHops = len(path)
	}
	if err := sm.Fabric.Send(sm.Origin, smp); err != nil {
		return err
	}
	if smp.Status != ib.StatusOK {
		return fmt.Errorf("sm: %s(%s) failed with status %#x", smp.Method, smp.Attribute, smp.Status)
	}
	return nil
}

// Configure runs the five bring-up phases and returns the operational
// subnet, built over the *recognized* tree.
func (sm *MADSubnetManager) Configure() (*ib.Subnet, error) {
	// Phase 1: exploration.
	sm.Stats = BringupStats{}
	graph, err := discover.Explore(prober{fabric: sm.Fabric, origin: sm.Origin, stats: &sm.Stats}, 0)
	if err != nil {
		return nil, err
	}
	// Phase 2: recognition, and the plan the remaining phases install.
	lab, err := discover.Recognize(graph)
	if err != nil {
		return nil, err
	}
	target, err := (&ib.SubnetManager{Tree: lab.Tree, Engine: sm.Engine}).Configure()
	if err != nil {
		return nil, err
	}
	nodes, switches := sortedGUIDs(lab.NodeID), sortedGUIDs(lab.SwitchID)
	space := target.LIDSpace()
	blocks := (space + ib.LFTBlockSize - 1) / ib.LFTBlockSize

	// Phase 3: endport addressing.
	for _, guid := range nodes {
		r := target.Endports[lab.NodeID[guid]]
		smp := &ib.SMP{Method: ib.MethodSet, Attribute: ib.AttrPortInfo, AttrMod: 1}
		ib.PortInfo{LID: r.Base, LMC: r.LMC, State: 4}.Encode(&smp.Data)
		if err := sm.send(graph.CAs[guid].Path, smp); err != nil {
			return nil, fmt.Errorf("sm: assigning LID to CA %#x: %w", guid, err)
		}
	}

	// Phase 4: forwarding tables, block by block.
	for _, guid := range switches {
		lft := target.LFTs[lab.SwitchID[guid]]
		path := graph.Switches[guid].Path
		// Announce the table size.
		siSMP := &ib.SMP{Method: ib.MethodSet, Attribute: ib.AttrSwitchInfo}
		ib.SwitchInfo{LinearFDBTop: uint16(space - 1)}.Encode(&siSMP.Data)
		if err := sm.send(path, siSMP); err != nil {
			return nil, fmt.Errorf("sm: switch %#x SwitchInfo: %w", guid, err)
		}
		for block := 0; block < blocks; block++ {
			b, routed := lftBlock(lft, block)
			if !routed {
				continue
			}
			smp := &ib.SMP{Method: ib.MethodSet, Attribute: ib.AttrLFTBlock, AttrMod: uint32(block)}
			b.Encode(&smp.Data)
			if err := sm.send(path, smp); err != nil {
				return nil, fmt.Errorf("sm: switch %#x LFT block %d: %w", guid, block, err)
			}
		}
	}

	// Phase 5: read-back verification against the target.
	for _, guid := range nodes {
		r := target.Endports[lab.NodeID[guid]]
		smp := &ib.SMP{Method: ib.MethodGet, Attribute: ib.AttrPortInfo, AttrMod: 1}
		if err := sm.send(graph.CAs[guid].Path, smp); err != nil {
			return nil, err
		}
		if pi := ib.DecodePortInfo(&smp.Data); pi.LID != r.Base || pi.LMC != r.LMC {
			return nil, fmt.Errorf("sm: CA %#x read-back mismatch: %v", guid, pi)
		}
	}
	for _, guid := range switches {
		lft := target.LFTs[lab.SwitchID[guid]]
		path := graph.Switches[guid].Path
		for block := 0; block < blocks; block++ {
			smp := &ib.SMP{Method: ib.MethodGet, Attribute: ib.AttrLFTBlock, AttrMod: uint32(block)}
			if err := sm.send(path, smp); err != nil {
				return nil, err
			}
			if want, _ := lftBlock(lft, block); ib.DecodeLFTBlock(&smp.Data) != want {
				return nil, fmt.Errorf("sm: switch %#x LFT block %d read-back mismatch", guid, block)
			}
		}
	}
	return target, nil
}

// lftBlock slices a forwarding table's 64-entry block, with PortNone for
// the reserved LID 0 and every LID past the table, and reports whether any
// entry is routed.
func lftBlock(lft *ib.LFT, block int) (b ib.LFTBlock, routed bool) {
	for i := range b.Ports {
		b.Ports[i] = lft.Port(ib.LID(block*ib.LFTBlockSize + i))
		routed = routed || b.Ports[i] != ib.PortNone
	}
	return b, routed
}
