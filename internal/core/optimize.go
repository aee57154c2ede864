package core

import (
	"sort"

	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// PathPlan is a profile-guided path assignment: for each (src, dst) flow of
// a known traffic matrix, the DLID whose route minimizes the fabric's
// maximum link load. It extends the paper's rank-based selection — which is
// optimal for symmetric group traffic but oblivious to skew — with an
// offline optimization over the same MLID multipath mechanism: nothing
// changes in the switches, only the DLIDs sources use.
//
// A plan is evaluated like any path selection: verify.Run with
// Input.SelectDLID returning the plan's DLID.
type PathPlan struct {
	dlid map[[2]topology.NodeID]ib.LID
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
// whose route currently adds the least to the most-loaded inter-switch link
// it crosses (greedy min-max). The destination's attachment link is left out
// of the cost: every candidate shares it, so counting it would tie them all
// whenever the destination is hot. The returned plan never worsens a flow's
// path length — every candidate is a shortest path by construction.
func OptimizePaths(t *topology.Tree, s MLID, flows []traffic.Flow) (*PathPlan, error) {
	m := t.M()
	load := make([]float64, t.Switches()*m) // per channel, switch*m + port
	plan := &PathPlan{dlid: make(map[[2]topology.NodeID]ib.LID, len(flows))}

	ordered := append([]traffic.Flow{}, flows...)
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
		var bestHops []Hop
		bestCost := -1.0
		for off := 0; off < count; off++ {
			lid := base + ib.LID(off)
			p, err := TraceLID(t, s, f.Src, lid)
			if err != nil {
				return nil, err
			}
			// Cost: the maximum load among the inter-switch links this route
			// would use after adding the flow. Offsets naming the same route
			// tie, and a tie keeps the lowest offset.
			inter := p.Hops[:len(p.Hops)-1]
			cost := 0.0
			for _, h := range inter {
				if l := load[int(h.Switch)*m+h.OutPort] + f.Weight; l > cost {
					cost = l
				}
			}
			if bestCost < 0 || cost < bestCost {
				bestCost, bestLID, bestHops = cost, lid, inter
			}
		}
		for _, h := range bestHops {
			load[int(h.Switch)*m+h.OutPort] += f.Weight
		}
		plan.dlid[[2]topology.NodeID{f.Src, f.Dst}] = bestLID
	}
	return plan, nil
}
