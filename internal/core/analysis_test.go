package core

import (
	"strconv"
	"testing"

	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
	"mlid/internal/verify"
)

// goldenFabrics are the paper's four evaluation networks (Table 1).
var goldenFabrics = [][2]int{{4, 4}, {8, 3}, {16, 2}, {32, 2}}

// staticLoad traces a matrix through sn's configured tables with the
// repository's one static link-load analyzer, verify's quality pass. sel,
// when non-nil, overrides the scheme's path selection (a path plan).
func staticLoad(t testing.TB, sn *ib.Subnet, flows []traffic.Flow, sel func(src, dst topology.NodeID) (ib.LID, bool)) verify.QualityReport {
	t.Helper()
	in := verify.FromSubnet(sn)
	in.SelectDLID = sel
	rep, err := verify.Run(in, verify.Options{Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("%d error findings on a healthy fabric", rep.Errors())
	}
	return rep.Stats.Quality[0]
}

// closedFormLoad is the differential oracle for staticLoad: it routes every
// flow by the paper's closed-form equations (TraceLID on the scheme's
// selected DLID) instead of the configured tables, sums the weights on the
// inter-switch links crossed, and summarizes them as the table walk does —
// max, mean over used links, and the lowest channel id (switch*m + port)
// attaining the max.
func closedFormLoad(t testing.TB, tr *topology.Tree, s Scheme, flows []traffic.Flow) (max, mean float64, maxLink string) {
	t.Helper()
	load := make([]float64, tr.Switches()*tr.M())
	for _, f := range flows {
		if f.Src == f.Dst {
			continue
		}
		p, err := TraceLID(tr, s, f.Src, s.DLID(tr, f.Src, f.Dst))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range p.Hops[:len(p.Hops)-1] {
			load[int(h.Switch)*tr.M()+h.OutPort] += f.Weight
		}
	}
	used, maxAt := 0, -1
	var sum float64
	for c, v := range load {
		if v == 0 {
			continue
		}
		used++
		sum += v
		if v > max {
			max, maxAt = v, c
		}
	}
	if used > 0 {
		mean = sum / float64(used)
	}
	if maxAt >= 0 {
		maxLink = tr.SwitchLabel(topology.SwitchID(maxAt/tr.M())) + ":" + strconv.Itoa(maxAt%tr.M())
	}
	return max, mean, maxLink
}

// shift is the k-shift permutation's static matrix.
func shift(tr *topology.Tree, k int) []traffic.Flow {
	n := tr.Nodes()
	return traffic.Permutation(tr, func(i int) int { return (i + k) % n })
}

// TestAllToOneLinkLoad formalizes the Figure 9 comparison: with every node
// sending unit load to one destination, SLID piles each leaf group's demand
// onto one ascending port and all of it onto one root's descending link,
// while MLID spreads it over the destination's m/2 parents.
func TestAllToOneLinkLoad(t *testing.T) {
	tr := topology.MustNew(8, 2)
	dst := topology.NodeID(tr.Nodes() - 1)
	flows := traffic.AllToOne(tr, dst)
	slidSN, mlidSN := configured(t, 8, 2, NewSLID()), configured(t, 8, 2, NewMLID())
	slid := staticLoad(t, slidSN, flows, nil)
	mlid := staticLoad(t, mlidSN, flows, nil)
	if slid.Flows != tr.Nodes()-1 || mlid.Flows != tr.Nodes()-1 {
		t.Fatalf("flows = %d/%d", slid.Flows, mlid.Flows)
	}
	// 28 sources sit outside the destination's leaf. SLID sends them all
	// down one root's link into that leaf; MLID spreads them over all four
	// roots.
	if slid.MaxLoad != 28 || mlid.MaxLoad != 7 {
		t.Fatalf("max inter-switch load SLID %v, MLID %v; want 28 and 7", slid.MaxLoad, mlid.MaxLoad)
	}
	if mlid.RootLinkMax != 7 || slid.RootLinkMax != 28 {
		t.Fatalf("root-link max SLID %v, MLID %v; want 28 and 7", slid.RootLinkMax, mlid.RootLinkMax)
	}

	// One source leaf group at a time: its h = m/2 members ascend over
	// the leaf's h up-links. MLID gives each member its own up-link and
	// root, so no link carries more than one flow; SLID sends all h up
	// one link and down one root.
	dstLeaf, _ := tr.NodeAttachment(dst)
	groups := map[topology.SwitchID][]traffic.Flow{}
	for _, f := range flows {
		if leaf, _ := tr.NodeAttachment(f.Src); leaf != dstLeaf {
			groups[leaf] = append(groups[leaf], f)
		}
	}
	if len(groups) != tr.Nodes()/(tr.M()/2)-1 {
		t.Fatalf("%d source leaf groups", len(groups))
	}
	h := float64(tr.M() / 2)
	for leaf, group := range groups {
		if s, m := staticLoad(t, slidSN, group, nil), staticLoad(t, mlidSN, group, nil); s.MaxLoad != h || m.MaxLoad != 1 {
			t.Fatalf("leaf %s group of %v: max inter-switch load SLID %v, MLID %v; want %v and 1",
				tr.SwitchLabel(leaf), h, s.MaxLoad, m.MaxLoad, h)
		}
	}
}

func TestLinkLoadSkipsSelfFlows(t *testing.T) {
	q := staticLoad(t, configured(t, 4, 2, NewMLID()), []traffic.Flow{{Src: 1, Dst: 1, Weight: 5}}, nil)
	if q.Flows != 0 || q.MaxLoad != 0 || q.MeanLoad != 0 || q.MaxLink != "" {
		t.Fatalf("self flow traced: %+v", q)
	}
}

// TestTopLinks pins the MaxLink tie-break: of the links attaining the
// maximum, the analyzer names the one with the lowest channel id. Under the
// half shift every used link carries exactly one flow, a many-way tie.
func TestTopLinks(t *testing.T) {
	for _, s := range Schemes() {
		sn := configured(t, 8, 2, s)
		tr := sn.Tree
		flows := shift(tr, tr.Nodes()/2)
		q := staticLoad(t, sn, flows, nil)
		if q.MaxLoad != 1 {
			t.Fatalf("%s: half shift max load %v, want 1", s.Name(), q.MaxLoad)
		}
		_, _, want := closedFormLoad(t, tr, s, flows)
		if q.MaxLink != want || want == "" {
			t.Fatalf("%s: MaxLink %q, want the lowest tied channel %q", s.Name(), q.MaxLink, want)
		}
	}
}

func TestPermutationFlows(t *testing.T) {
	tr := topology.MustNew(4, 2)
	n := tr.Nodes()
	flows := shift(tr, 1)
	if len(flows) != n {
		t.Fatalf("%d flows, want %d", len(flows), n)
	}
	// Identity permutation produces nothing.
	if got := traffic.Permutation(tr, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("identity produced %d flows", len(got))
	}
	// Out-of-range destinations are skipped.
	if got := traffic.Permutation(tr, func(i int) int { return -1 }); len(got) != 0 {
		t.Fatalf("out-of-range produced %d flows", len(got))
	}
	q := staticLoad(t, configured(t, 4, 2, NewMLID()), flows, nil)
	if q.Flows != n || q.MeanLoad <= 0 || q.MaxLoad < q.MeanLoad {
		t.Fatalf("bad summary: %d flows, max %v mean %v", q.Flows, q.MaxLoad, q.MeanLoad)
	}
}

// TestBitComplementBalance: under the PID bit-complement permutation
// (alpha=0 for every pair), MLID keeps the root links perfectly balanced:
// every root descending link carries the same load.
func TestBitComplementBalance(t *testing.T) {
	sn := configured(t, 4, 3, NewMLID())
	n := sn.Tree.Nodes()
	q := staticLoad(t, sn, traffic.Permutation(sn.Tree, func(i int) int { return n - 1 - i }), nil)
	if q.RootLinkMax <= 0 || q.RootLinkMax != q.RootLinkMin {
		t.Fatalf("root links max/min %v/%v, want equal and positive", q.RootLinkMax, q.RootLinkMin)
	}
}

// TestStaticLoadPins pins the static congestion facts on the golden fabrics
// through the one analyzer, and holds the configured tables to the paper's
// closed-form equations on the same matrices. All-to-one is the only case
// where the schemes differ: MLID divides SLID's maximum by m/2.
// No shift permutation loads an inter-switch link twice under either.
func TestStaticLoadPins(t *testing.T) {
	allToOne := map[[2]int][2]float64{ // fabric -> {SLID, MLID} max load
		{4, 4}: {30, 15}, {8, 3}: {124, 31}, {16, 2}: {120, 15}, {32, 2}: {496, 31},
	}
	for _, fab := range goldenFabrics {
		for si, s := range []Scheme{NewSLID(), NewMLID()} {
			sn := configured(t, fab[0], fab[1], s)
			tr := sn.Tree
			n := tr.Nodes()
			check := func(name string, flows []traffic.Flow) verify.QualityReport {
				t.Helper()
				q := staticLoad(t, sn, flows, nil)
				max, mean, link := closedFormLoad(t, tr, s, flows)
				if q.MaxLoad != max || q.MeanLoad != mean || q.MaxLink != link {
					t.Fatalf("%s %s %s: table walk max %v mean %v at %s, closed form max %v mean %v at %s",
						tr, s.Name(), name, q.MaxLoad, q.MeanLoad, q.MaxLink, max, mean, link)
				}
				return q
			}
			for _, dst := range []int{0, n / 2, n - 1} {
				q := check("all-to-one", traffic.AllToOne(tr, topology.NodeID(dst)))
				if want := allToOne[fab][si]; q.MaxLoad != want {
					t.Errorf("%s %s all-to-one(%d): max %v, want %v", tr, s.Name(), dst, q.MaxLoad, want)
				}
			}
			// Every shift through the closed form; the table walk on each
			// power-of-two shift (one per PID digit boundary) and on N-1.
			// Each verify.Run re-walks every route of the fabric, so a
			// table walk on all N-1 shifts costs seconds, minutes under
			// the race detector.
			for k := 1; k < n; k++ {
				flows := shift(tr, k)
				if max, _, _ := closedFormLoad(t, tr, s, flows); max != 1 {
					t.Errorf("%s %s shift %d: closed-form max %v, want 1", tr, s.Name(), k, max)
				}
				if k&(k-1) == 0 || k == n-1 {
					if q := check("shift", flows); q.MaxLoad != 1 {
						t.Errorf("%s %s shift %d: max %v, want 1", tr, s.Name(), k, q.MaxLoad)
					}
				}
			}
			check("bit-complement", traffic.Permutation(tr, func(i int) int { return n - 1 - i }))
		}
	}
}
