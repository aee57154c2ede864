package sim

import (
	"testing"

	"mlid/internal/core"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// TestOptimizedPlanBeatsRankDynamically: the profile-guided path plan's
// static max-load win translates into a shorter measured makespan for the
// same skewed workload.
func TestOptimizedPlanBeatsRankDynamically(t *testing.T) {
	scheme := core.NewMLID()
	sn := mustSubnet(t, 8, 2, scheme)
	tr := sn.Tree

	// The adversarial skew from the optimizer tests: per pair, two sources
	// with the same rank digit in different leaves send heavy messages to
	// the same destination leaf, colliding on one root down-link under the
	// rank rule.
	var flows []traffic.Flow
	var msgs []Message
	for pair := 0; pair < 3; pair++ {
		srcA, _ := tr.NodeFromDigits([]int{2 * pair, 0})
		srcB, _ := tr.NodeFromDigits([]int{2*pair + 1, 0})
		dstA, _ := tr.NodeFromDigits([]int{6, 2 * (pair % 2)})
		dstB, _ := tr.NodeFromDigits([]int{6, 2*(pair%2) + 1})
		flows = append(flows,
			traffic.Flow{Src: srcA, Dst: dstA, Weight: 1},
			traffic.Flow{Src: srcB, Dst: dstB, Weight: 1})
		const bytes = 64 * 256
		msgs = append(msgs,
			Message{Src: srcA, Dst: dstA, Bytes: bytes},
			Message{Src: srcB, Dst: dstB, Bytes: bytes})
	}

	run := func(sel Selector) BatchResult {
		res, err := RunBatch(Config{
			Subnet:     sn,
			Messages:   msgs,
			PathSelect: sel,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	rank := run(nil)
	plan, err := core.OptimizePaths(tr, scheme, flows)
	if err != nil {
		t.Fatal(err)
	}
	planned := run(SelectPlan(plan))
	if planned.MakespanNs >= rank.MakespanNs {
		t.Errorf("planned makespan %d not better than rank %d", planned.MakespanNs, rank.MakespanNs)
	}
	// Roughly a 2x improvement is expected: two colliding transfers per
	// root down-link become one.
	if planned.MakespanNs > rank.MakespanNs*3/4 {
		t.Errorf("plan gain too small: %d vs %d", planned.MakespanNs, rank.MakespanNs)
	}
}

// TestDLIDFuncOpenLoop: a custom per-pair policy also drives open-loop runs
// and the packets still deliver correctly.
func TestDLIDFuncOpenLoop(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	res, err := Run(Config{
		Subnet:  sn,
		Pattern: traffic.Uniform{Nodes: sn.Tree.Nodes()},
		// Always the base LID: a valid (if unbalanced) selection.
		PathSelect:  pairSelector{func(topology.NodeID, topology.NodeID) int { return 0 }},
		OfferedLoad: 0.2,
		WarmupNs:    5_000,
		MeasureNs:   30_000,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredWindow == 0 {
		t.Fatal("no deliveries with a custom per-pair policy")
	}
}
