package traffic

import "mlid/internal/topology"

// Flow is one entry of a static traffic matrix: Weight units of load from
// Src to Dst.
type Flow struct {
	Src, Dst topology.NodeID
	Weight   float64
}

// AllToOne builds the traffic matrix in which every node sends unit load to
// the single destination — the static counterpart of Centric with every
// packet sent to the hotspot, and the concentrated pattern behind the
// paper's Figure 9 congestion example.
func AllToOne(t *topology.Tree, dst topology.NodeID) []Flow {
	flows := make([]Flow, 0, t.Nodes()-1)
	for p := 0; p < t.Nodes(); p++ {
		if topology.NodeID(p) == dst {
			continue
		}
		flows = append(flows, Flow{Src: topology.NodeID(p), Dst: dst, Weight: 1})
	}
	return flows
}

// Permutation builds a unit-load flow per node from a permutation function —
// the static counterpart of PermutationPattern. Fixed points and
// out-of-range images are skipped.
func Permutation(t *topology.Tree, perm func(int) int) []Flow {
	flows := make([]Flow, 0, t.Nodes())
	for p := 0; p < t.Nodes(); p++ {
		d := perm(p)
		if d == p || d < 0 || d >= t.Nodes() {
			continue
		}
		flows = append(flows, Flow{Src: topology.NodeID(p), Dst: topology.NodeID(d), Weight: 1})
	}
	return flows
}
