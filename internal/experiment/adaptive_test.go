package experiment

import (
	"reflect"
	"testing"

	"mlid/internal/sim"
	"mlid/internal/topology"
)

// TestClassShuffleProperties pins the adversarial construction: a bijection
// with no fixed points whose every non-deranged class member sends into the
// group indexed by its own offset class — the alignment that collapses the
// static rank policy onto one root down-link per class.
func TestClassShuffleProperties(t *testing.T) {
	tr := topology.MustNew(8, 3)
	pat, ok := classShuffle(tr)
	if !ok {
		t.Fatal("classShuffle unavailable on FT(8,3)")
	}
	nodes, m := tr.Nodes(), tr.M()
	classes := nodes / m
	seen := make([]bool, nodes)
	deranged := 0
	for src, dst := range pat.Perm {
		if dst == src {
			t.Fatalf("fixed point at %d", src)
		}
		if seen[dst] {
			t.Fatalf("destination %d hit twice", dst)
		}
		seen[dst] = true
		c := src % classes
		if dst/classes != c%m {
			// Deranged former fixed points are the only exceptions, and
			// there is exactly one per class.
			deranged++
		}
	}
	if deranged > classes {
		t.Errorf("%d sources escape their class group, want at most %d", deranged, classes)
	}
	// FT(4,2) has fewer offset classes than groups; the construction must
	// bow out rather than emit a partial alignment.
	if _, ok := classShuffle(topology.MustNew(4, 2)); ok {
		t.Error("classShuffle accepted FT(4,2)")
	}
}

// TestAdaptiveStudyQuick runs the reduced family study and checks shape and
// composition: every (workload, variant) block carries one row per selector,
// conservation held (the runner errors otherwise), the degraded variant
// actually bit (reroutes under reselection, retransmits under transport),
// and the spray selectors reordered while rank stayed in order on the
// quiet permutation.
func TestAdaptiveStudyQuick(t *testing.T) {
	spec := QuickAdaptiveSpec()
	rows, err := AdaptiveStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	selectors := sim.SelectorNames()
	workloads := 4 // hotspot, shuffle, tornado, incast on FT(4,3)
	if want := workloads * 2 * len(selectors); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	var faultedReroutes, faultedRexmit int64
	for i, r := range rows {
		if r.Selector != selectors[i%len(selectors)] {
			t.Fatalf("row %d: selector %q out of order", i, r.Selector)
		}
		if r.Delivered == 0 {
			t.Errorf("%s/%s faulted=%t delivered nothing", r.Workload, r.Selector, r.Faulted)
		}
		if r.Faulted {
			faultedReroutes += r.Reroutes
			faultedRexmit += r.Retransmits
		} else if r.Retransmits != 0 {
			t.Errorf("%s/%s: retransmits without transport", r.Workload, r.Selector)
		}
	}
	if faultedReroutes == 0 {
		t.Error("degraded variants never rerouted — the link sample did not bite")
	}
	if faultedRexmit == 0 {
		t.Error("degraded variants never retransmitted")
	}
}

// TestAdaptiveShuffleSeparates is the acceptance regression: on the
// class-aligned shuffle the congestion-aware selector must strictly beat the
// paper's static rank assignment, whose class members all collide on one
// root down-link. Short windows keep this cheap; the margin at full fidelity
// (EXPERIMENTS.md) is ≈1.45×, so a strict > here has enormous headroom.
func TestAdaptiveShuffleSeparates(t *testing.T) {
	spec := AdaptiveSpec{
		Network:     Network{8, 3},
		DataVLs:     2,
		OfferedLoad: 0.6,
		WarmupNs:    10_000, MeasureNs: 40_000,
		Selectors: []string{"rank", "adaptive"},
		Seed:      131,
	}
	rows, err := AdaptiveStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	accepted := map[string]map[string]float64{}
	for _, r := range rows {
		if accepted[r.Workload] == nil {
			accepted[r.Workload] = map[string]float64{}
		}
		accepted[r.Workload][r.Selector] = r.AcceptedBns
	}
	sh := accepted["shuffle"]
	if sh["adaptive"] <= sh["rank"] {
		t.Errorf("shuffle: adaptive %.4f does not beat rank %.4f", sh["adaptive"], sh["rank"])
	}
	// Tornado is statically balanced under MLID: adaptive must not lose
	// ground where rank is already optimal.
	to := accepted["tornado"]
	if to["adaptive"] < 0.99*to["rank"] {
		t.Errorf("tornado: adaptive %.4f regressed below rank %.4f", to["adaptive"], to["rank"])
	}
}

// TestAdaptiveStudyDeterminism runs the quick campaign twice on the
// calendar path and once with every point's Config heap-only, and diffs bit
// for bit: the whole family — including the stateful and congestion-coupled
// selectors under faults and transport — must be reproducible.
func TestAdaptiveStudyDeterminism(t *testing.T) {
	spec := QuickAdaptiveSpec()
	base, err := AdaptiveStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := AdaptiveStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, again) {
		t.Fatal("adaptive campaign is not reproducible")
	}
	heap, err := runHeapOnly(adaptiveStudy(spec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, heap) {
		t.Fatal("calendar and heap-only scheduler paths disagree")
	}
}
