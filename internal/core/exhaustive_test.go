package core

import (
	"slices"
	"strings"
	"testing"

	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/verify"
)

// treeLinks lists every link of tr once, named by its lower-numbered
// switch end (a node link by its leaf end), in ascending (switch, port)
// order.
func treeLinks(tr *topology.Tree) [][2]int32 {
	var out [][2]int32
	for sw := 0; sw < tr.Switches(); sw++ {
		for p := 0; p < tr.M(); p++ {
			if ref := tr.SwitchNeighbor(topology.SwitchID(sw), p); ref.Kind == topology.KindSwitch && int(ref.Switch) < sw {
				continue
			}
			out = append(out, [2]int32{int32(sw), int32(p)})
		}
	}
	return out
}

// faultViews enumerates every single link fault of tr and, with pairs set,
// every pair of distinct link faults.
func faultViews(tr *topology.Tree, pairs bool) [][][2]int32 {
	links := treeLinks(tr)
	var out [][][2]int32
	for i := range links {
		out = append(out, links[i:i+1])
		for j := i + 1; pairs && j < len(links); j++ {
			out = append(out, [][2]int32{links[i], links[j]})
		}
	}
	return out
}

// TestExhaustiveSmallScopeRepair enumerates every single link fault on
// FT(4,2), FT(4,3) and FT(8,2), and every pair of link faults on FT(4,2)
// and FT(4,3), under both schemes. For each fault set:
//   - RepairIncremental from pristine, over DirtySwitches(empty, faults),
//     equals the full-scan RepairSubnet (checkEquivalence);
//   - DirtySwitches(faults, empty) brings the state back to pristine, and
//     the deltas of both steps, replayed onto a copy of the pristine
//     tables, end where they started;
//   - the repaired tables verify with no error, and SelectLID's served or
//     unserved answer for every (src, dst) matches verify's walk of them:
//     a served pair's DLID is delivered (the quality pass, tracing
//     SelectLID's choices, leaves exactly the unserved pairs unrouted),
//     and an unserved MLID pair has a dead attachment at its source or no
//     LID of the destination reaching it from the source's leaf.
//
// SelectLID judges a candidate by the scheme's own route, not the repaired
// tables, so an SLID pair whose one route the repair moved off a dead
// ascending link is unserved though the tables deliver it. Those pairs are
// counted and pinned per fabric; MLID has none.
func TestExhaustiveSmallScopeRepair(t *testing.T) {
	fabrics := []struct {
		m, n  int
		pairs bool
		// slidRerouted pins the (fault set, src, dst) cases SelectLID
		// leaves unserved under SLID though the repaired tables deliver.
		slidRerouted int
	}{
		{4, 2, true, 576},
		{4, 3, true, 17728},
		{8, 2, false, 896},
	}
	for _, fab := range fabrics {
		for _, s := range Schemes() {
			sn := configured(t, fab.m, fab.n, s)
			tr := sn.Tree
			replay := cloneLFTs(sn)
			empty := NewFaultSet()
			rerouted := 0
			for _, view := range faultViews(tr, fab.pairs) {
				fs := faultSetOf(tr, view)
				st := NewRepairState(sn)
				down, err := st.RepairIncremental(fs, st.DirtySwitches(empty, fs))
				if err != nil {
					t.Fatalf("%v %s %v: %v", tr, s.Name(), view, err)
				}
				checkEquivalence(t, st, sn, view)
				applyDeltas(t, replay, down)

				lfts, err := st.TargetLFTs()
				if err != nil {
					t.Fatal(err)
				}
				rerouted += checkServedMatchesWalk(t, tr, s, sn.Endports, lfts, fs, view)

				up, err := st.RepairIncremental(empty, st.DirtySwitches(fs, empty))
				if err != nil {
					t.Fatalf("%v %s %v revived: %v", tr, s.Name(), view, err)
				}
				applyDeltas(t, replay, up)
				if st.Remapped() != 0 || st.Broken() != 0 {
					t.Fatalf("%v %s %v revived: %d remapped, %d broken, want pristine", tr, s.Name(), view, st.Remapped(), st.Broken())
				}
				target, err := st.TargetLFTs()
				if err != nil {
					t.Fatal(err)
				}
				for sw := range target {
					if target[sw] != sn.LFTs[sw] {
						t.Fatalf("%v %s %v revived: switch %d keeps an overlay", tr, s.Name(), view, sw)
					}
					if got, want := replay.LFTs[sw].Entries(), sn.LFTs[sw].Entries(); !slices.Equal(got, want) {
						t.Fatalf("%v %s %v: replayed deltas leave switch %d off pristine", tr, s.Name(), view, sw)
					}
				}
			}
			want := 0
			if s.Name() == "SLID" {
				want = fab.slidRerouted
			}
			if rerouted != want {
				t.Errorf("%v %s: %d unserved pairs the repaired tables deliver, want %d", tr, s.Name(), rerouted, want)
			}
		}
	}
}

// applyDeltas writes repair deltas into tables, as the subnet manager's
// staged updates do.
func applyDeltas(t *testing.T, sn *ib.Subnet, deltas []SwitchDelta) {
	t.Helper()
	for _, d := range deltas {
		for _, e := range d.Entries {
			if err := sn.LFTs[d.Switch].Set(e.LID, e.Port); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkServedMatchesWalk verifies the repaired tables lfts under the dead
// links of view, with SelectLID choosing each source's DLID, and holds
// SelectLID's answer for every (src, dst) against the verifier's walk (see
// TestExhaustiveSmallScopeRepair). It returns the number of unserved pairs
// the tables deliver anyway, which it allows only under SLID.
func checkServedMatchesWalk(t *testing.T, tr *topology.Tree, s Scheme, endports []ib.LIDRange, lfts []*ib.LFT, fs *FaultSet, view [][2]int32) (rerouted int) {
	t.Helper()
	in := verify.Input{
		Tree: tr, Endports: endports, LFTs: lfts, Engine: s, DeadLinks: view,
		SelectDLID: func(src, dst topology.NodeID) (ib.LID, bool) { return SelectLID(tr, s, src, dst, fs) },
	}
	rep, err := verify.Run(in, verify.Options{MaxFindings: -1})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := rep.FirstError(); ok {
		t.Fatalf("%v %s %v: repaired tables fail verification: %s", tr, s.Name(), view, f)
	}
	// The walk's per-(leaf, destination) verdict: all of the destination's
	// LIDs blocked by dead links from that leaf.
	blockedFrom := map[string]bool{}
	for _, f := range rep.Findings() {
		if rest, ok := strings.CutPrefix(f.Message, "destination "); ok && strings.Contains(rest, " unreachable:") {
			blockedFrom[f.Location+" "+strings.Fields(rest)[0]] = true
		}
	}
	unserved := 0
	for src := topology.NodeID(0); int(src) < tr.Nodes(); src++ {
		leaf, port := tr.NodeAttachment(src)
		for dst := topology.NodeID(0); int(dst) < tr.Nodes(); dst++ {
			if src == dst {
				continue
			}
			if _, ok := SelectLID(tr, s, src, dst, fs); ok {
				continue
			}
			unserved++
			if !fs.Dead(leaf, port) && !blockedFrom[tr.SwitchLabel(leaf)+" "+tr.NodeLabel(dst)] {
				if s.Name() != "SLID" {
					t.Fatalf("%v %s %v: SelectLID leaves %d->%d unserved, but the repaired tables deliver it", tr, s.Name(), view, src, dst)
				}
				rerouted++
			}
		}
	}
	if got := rep.Stats.Quality[0].Unrouted; got != unserved {
		t.Fatalf("%v %s %v: %d flows unrouted through the repaired tables, SelectLID leaves %d unserved: a served DLID is not delivered",
			tr, s.Name(), view, got, unserved)
	}
	return rerouted
}

// switchView names every link of one switch as a dead-link view: its
// whole-switch outage.
func switchView(tr *topology.Tree, sw topology.SwitchID) [][2]int32 {
	view := make([][2]int32, tr.M())
	for p := range view {
		view[p] = [2]int32{int32(sw), int32(p)}
	}
	return view
}

// TestExhaustiveSwitchFaultRepair enumerates every single switch outage
// (every link of one switch dead) on FT(4,2), FT(4,3), FT(8,2) and FT(8,3)
// under both schemes, through one repair state. Before each outage the
// state is Reset to the fabric and scheme at hand while it still holds the
// previous outage's repair, so whatever a Reset failed to clear shows in
// the next comparison. For each outage:
//   - RepairIncremental from pristine equals RepairSubnet (checkEquivalence);
//   - reviving the switch brings the state back to pristine, every switch's
//     target aliasing its pristine table;
//   - the repaired tables, with SelectLID choosing each source's DLID,
//     verify with no error.
func TestExhaustiveSwitchFaultRepair(t *testing.T) {
	st := &RepairState{}
	empty := NewFaultSet()
	for _, fab := range [][2]int{{4, 2}, {4, 3}, {8, 2}, {8, 3}} {
		for _, s := range Schemes() {
			sn := configured(t, fab[0], fab[1], s)
			tr := sn.Tree
			for sw := topology.SwitchID(0); int(sw) < tr.Switches(); sw++ {
				view := switchView(tr, sw)
				fs := faultSetOf(tr, view)
				st.Reset(sn)
				if _, err := st.RepairIncremental(fs, st.DirtySwitches(empty, fs)); err != nil {
					t.Fatalf("%v %s switch %d out: %v", tr, s.Name(), sw, err)
				}
				checkEquivalence(t, st, sn, view)
				lfts, err := st.TargetLFTs()
				if err != nil {
					t.Fatal(err)
				}
				in := verify.Input{
					Tree: tr, Endports: sn.Endports, LFTs: lfts, Engine: s, DeadLinks: view,
					SelectDLID: func(src, dst topology.NodeID) (ib.LID, bool) { return SelectLID(tr, s, src, dst, fs) },
				}
				rep, err := verify.Run(in, verify.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if f, ok := rep.FirstError(); ok {
					t.Fatalf("%v %s switch %d out: repaired tables fail verification: %s", tr, s.Name(), sw, f)
				}

				if _, err := st.RepairIncremental(empty, st.DirtySwitches(fs, empty)); err != nil {
					t.Fatalf("%v %s switch %d revived: %v", tr, s.Name(), sw, err)
				}
				if st.Remapped() != 0 || st.Broken() != 0 {
					t.Fatalf("%v %s switch %d revived: %d remapped, %d broken, want pristine", tr, s.Name(), sw, st.Remapped(), st.Broken())
				}
				target, err := st.TargetLFTs()
				if err != nil {
					t.Fatal(err)
				}
				for i := range target {
					if target[i] != sn.LFTs[i] {
						t.Fatalf("%v %s switch %d revived: switch %d keeps an overlay", tr, s.Name(), sw, i)
					}
				}
				// Leave the outage repaired for the next Reset to clear.
				if _, err := st.RepairIncremental(fs, st.DirtySwitches(empty, fs)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
