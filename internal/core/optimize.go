package core

import (
	"sort"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// PathPlan is a profile-guided path assignment: for each (src, dst) flow of
// a known traffic matrix, the DLID whose route minimizes the fabric's
// maximum link load. It extends the paper's rank-based selection — which is
// optimal for symmetric group traffic but oblivious to skew — with an
// offline optimization over the same MLID multipath mechanism: nothing
// changes in the switches, only the DLIDs sources use.
type PathPlan struct {
	dlid map[[2]topology.NodeID]ib.LID
	// MaxLoad and MeanLoad describe the planned assignment's link loads.
	MaxLoad, MeanLoad float64
}

// DLID returns the planned DLID for a flow, falling back to the scheme's
// canonical selection for unplanned pairs.
func (p *PathPlan) DLID(t *topology.Tree, s Scheme, src, dst topology.NodeID) ib.LID {
	if lid, ok := p.Lookup(src, dst); ok {
		return lid
	}
	return s.DLID(t, src, dst)
}

// Lookup returns the planned DLID for a flow and whether the flow is
// planned. A nil plan plans nothing.
func (p *PathPlan) Lookup(src, dst topology.NodeID) (ib.LID, bool) {
	if p == nil {
		return 0, false
	}
	lid, ok := p.dlid[[2]topology.NodeID{src, dst}]
	return lid, ok
}

// Planned returns the number of planned flows.
func (p *PathPlan) Planned() int { return len(p.dlid) }

// OptimizePaths computes a path plan for the traffic matrix under the MLID
// scheme: flows are processed heaviest first, and each picks the LID offset
// whose route currently adds the least to the most-loaded link it crosses
// (greedy min-max). The returned plan never worsens a flow's path length —
// every candidate is a shortest path by construction.
func OptimizePaths(t *topology.Tree, s MLID, flows []Flow) (*PathPlan, error) {
	type linkKey struct {
		sw   topology.SwitchID
		port int
	}
	load := make(map[linkKey]float64)
	plan := &PathPlan{dlid: make(map[[2]topology.NodeID]ib.LID, len(flows))}

	ordered := append([]Flow{}, flows...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Weight != ordered[j].Weight {
			return ordered[i].Weight > ordered[j].Weight
		}
		if ordered[i].Src != ordered[j].Src {
			return ordered[i].Src < ordered[j].Src
		}
		return ordered[i].Dst < ordered[j].Dst
	})

	for _, f := range ordered {
		if f.Src == f.Dst {
			continue
		}
		base := s.BaseLID(t, f.Dst)
		count := s.PathsPerPair(t)
		bestLID := ib.LID(0)
		var bestPath Path
		bestCost := -1.0
		seen := map[string]bool{}
		for off := 0; off < count; off++ {
			lid := base + ib.LID(off)
			p, err := TraceLID(t, s, f.Src, lid)
			if err != nil {
				return nil, err
			}
			key := p.Render(nil)
			if seen[key] {
				continue
			}
			seen[key] = true
			// Cost: the maximum load among the links this route would use
			// after adding the flow.
			cost := 0.0
			for _, h := range p.Hops {
				if l := load[linkKey{h.Switch, h.OutPort}] + f.Weight; l > cost {
					cost = l
				}
			}
			if bestCost < 0 || cost < bestCost {
				bestCost, bestLID, bestPath = cost, lid, p
			}
		}
		for _, h := range bestPath.Hops {
			load[linkKey{h.Switch, h.OutPort}] += f.Weight
		}
		plan.dlid[[2]topology.NodeID{f.Src, f.Dst}] = bestLID
	}

	// Summarize over sorted keys so the float sum accumulates in a fixed
	// order regardless of map iteration.
	lks := make([]linkKey, 0, len(load))
	for k := range load {
		lks = append(lks, k)
	}
	sort.Slice(lks, func(i, j int) bool {
		if lks[i].sw != lks[j].sw {
			return lks[i].sw < lks[j].sw
		}
		return lks[i].port < lks[j].port
	})
	var sum float64
	for _, k := range lks {
		v := load[k]
		sum += v
		if v > plan.MaxLoad {
			plan.MaxLoad = v
		}
	}
	if len(load) > 0 {
		plan.MeanLoad = sum / float64(len(load))
	}
	return plan, nil
}

// PlanLinkLoad evaluates a traffic matrix under a plan's selections (the
// counterpart of LinkLoad for canonical selection).
func PlanLinkLoad(t *topology.Tree, s MLID, plan *PathPlan, flows []Flow) (*LoadReport, error) {
	r := &LoadReport{Load: make(map[LinkKey]float64)}
	for _, f := range flows {
		if f.Src == f.Dst {
			continue
		}
		lid := plan.DLID(t, s, f.Src, f.Dst)
		p, err := TraceLID(t, s, f.Src, lid)
		if err != nil {
			return nil, err
		}
		r.Flows++
		r.Load[LinkKey{Kind: topology.KindNode, Entity: int32(f.Src)}] += f.Weight
		for _, h := range p.Hops {
			r.Load[LinkKey{Kind: topology.KindSwitch, Entity: int32(h.Switch), Port: h.OutPort}] += f.Weight
		}
	}
	r.summarize()
	return r, nil
}
