package core

import (
	"testing"

	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// planSelect evaluates a plan the way the simulator follows it: the plan's
// DLID for planned pairs, the scheme's selection otherwise.
func planSelect(tr *topology.Tree, s MLID, plan *PathPlan) func(src, dst topology.NodeID) (ib.LID, bool) {
	return func(src, dst topology.NodeID) (ib.LID, bool) { return plan.DLID(tr, s, src, dst), true }
}

// TestOptimizePermutationMatchesRank: on a balanced permutation the rank
// selection is already optimal (every link load 1), and the optimizer must
// match it.
func TestOptimizePermutationMatchesRank(t *testing.T) {
	s := NewMLID()
	sn := configured(t, 4, 3, s)
	tr := sn.Tree
	n := tr.Nodes()
	flows := traffic.Permutation(tr, func(i int) int { return n - 1 - i })

	plan, err := OptimizePaths(tr, s, flows)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Planned() != len(flows) {
		t.Fatalf("planned %d of %d", plan.Planned(), len(flows))
	}
	rank := staticLoad(t, sn, flows, nil)
	planned := staticLoad(t, sn, flows, planSelect(tr, s, plan))
	if planned.MaxLoad > rank.MaxLoad {
		t.Errorf("optimizer max load %v worse than rank %v", planned.MaxLoad, rank.MaxLoad)
	}
}

// TestOptimizeBeatsRankOnSkew: with a skewed matrix (several group members
// all talking to the same few destinations *plus* heavy cross flows), the
// rank rule can pile unrelated heavy flows onto shared ascending links; the
// optimizer must do strictly better on max link load.
func TestOptimizeBeatsRankOnSkew(t *testing.T) {
	tr := topology.MustNew(8, 2)
	s := NewMLID()
	// Adversarial skew for the oblivious rank rule: pairs of heavy flows
	// from different leaves whose sources share the same rank digit (so
	// both ascend to the same root) and whose destinations share a leaf —
	// the two descents then collide on the root's single down-link into
	// that leaf. The optimizer can split them over different roots.
	var flows []traffic.Flow
	for pair := 0; pair < 3; pair++ {
		srcA, err := tr.NodeFromDigits([]int{2 * pair, 0})
		if err != nil {
			t.Fatal(err)
		}
		srcB, err := tr.NodeFromDigits([]int{2*pair + 1, 0})
		if err != nil {
			t.Fatal(err)
		}
		dstLeaf := 6
		dstA, err := tr.NodeFromDigits([]int{dstLeaf, 2 * (pair % 2)})
		if err != nil {
			t.Fatal(err)
		}
		dstB, err := tr.NodeFromDigits([]int{dstLeaf, 2*(pair%2) + 1})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows,
			traffic.Flow{Src: srcA, Dst: dstA, Weight: 10},
			traffic.Flow{Src: srcB, Dst: dstB, Weight: 10})
	}

	plan, err := OptimizePaths(tr, s, flows)
	if err != nil {
		t.Fatal(err)
	}
	sn := configured(t, 8, 2, s)
	rank := staticLoad(t, sn, flows, nil)
	planned := staticLoad(t, sn, flows, planSelect(tr, s, plan))
	if planned.MaxLoad >= rank.MaxLoad {
		t.Errorf("optimizer max %v not better than rank %v", planned.MaxLoad, rank.MaxLoad)
	}
	// All planned routes are still shortest paths (delivery verified).
	for _, f := range flows {
		lid := plan.DLID(tr, s, f.Src, f.Dst)
		p, err := TraceLID(tr, s, f.Src, lid)
		if err != nil || p.Dst != f.Dst {
			t.Fatalf("planned path broken for %d->%d: %v", f.Src, f.Dst, err)
		}
		if p.Len() != tr.Distance(f.Src, f.Dst) {
			t.Fatalf("planned path not shortest for %d->%d", f.Src, f.Dst)
		}
	}
}

// TestPlanFallsBackToRank: unplanned pairs use the canonical selection.
func TestPlanFallsBackToRank(t *testing.T) {
	tr := topology.MustNew(4, 2)
	s := NewMLID()
	plan, err := OptimizePaths(tr, s, []traffic.Flow{{Src: 0, Dst: 5, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.DLID(tr, s, 1, 6); got != s.DLID(tr, 1, 6) {
		t.Errorf("fallback DLID %d != canonical %d", got, s.DLID(tr, 1, 6))
	}
}

// TestOptimizeSkipsSelfFlows: self flows are ignored, not planned.
func TestOptimizeSkipsSelfFlows(t *testing.T) {
	tr := topology.MustNew(4, 2)
	plan, err := OptimizePaths(tr, NewMLID(), []traffic.Flow{{Src: 2, Dst: 2, Weight: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Planned() != 0 {
		t.Errorf("planned %d self flows", plan.Planned())
	}
}

// TestOptimizeAllToOneNoWorseThanRank: on a hot destination every candidate
// route shares the destination's attachment link, so the planner must rank
// candidates by the inter-switch links alone — counting the shared link
// ties them all and the first offset wins, piling SLID-like load on one
// root. Evaluated by the analyzer, the plan must match rank selection.
func TestOptimizeAllToOneNoWorseThanRank(t *testing.T) {
	s := NewMLID()
	for _, fab := range goldenFabrics {
		sn := configured(t, fab[0], fab[1], s)
		tr := sn.Tree
		flows := traffic.AllToOne(tr, topology.NodeID(tr.Nodes()-1))
		plan, err := OptimizePaths(tr, s, flows)
		if err != nil {
			t.Fatal(err)
		}
		rank := staticLoad(t, sn, flows, nil)
		planned := staticLoad(t, sn, flows, planSelect(tr, s, plan))
		if planned.MaxLoad > rank.MaxLoad {
			t.Errorf("%s all-to-one: plan max %v worse than rank %v", tr, planned.MaxLoad, rank.MaxLoad)
		}
	}
}
