package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// cloneLFTs deep-copies a configured subnet's tables so RepairSubnet can
// mutate a scratch copy while the pristine original backs the RepairState.
func cloneLFTs(sn *ib.Subnet) *ib.Subnet {
	out := &ib.Subnet{Tree: sn.Tree, Engine: sn.Engine, Endports: sn.Endports,
		LFTs: make([]*ib.LFT, len(sn.LFTs))}
	for i, lft := range sn.LFTs {
		out.LFTs[i] = lft.Clone()
	}
	return out
}

// randomLinks maps raw bytes to a deterministic set of switch-side links of
// tr, possibly overlapping, as (switch, abstract port) pairs.
func randomLinks(tr *topology.Tree, raw []uint16) [][2]int32 {
	var out [][2]int32
	for _, r := range raw {
		sw := int(r) % tr.Switches()
		port := (int(r) / tr.Switches()) % tr.M()
		out = append(out, [2]int32{int32(sw), int32(port)})
	}
	return out
}

// faultSetOf registers a dead-link view in a fresh FaultSet.
func faultSetOf(tr *topology.Tree, view [][2]int32) *FaultSet {
	fs := NewFaultSet()
	for _, e := range view {
		fs.FailLink(tr, topology.SwitchID(e[0]), int(e[1]))
	}
	return fs
}

// advance drives st from its previous view to cur and returns the deltas.
func advance(t *testing.T, st *RepairState, tr *topology.Tree, prev, cur [][2]int32) []SwitchDelta {
	t.Helper()
	deltas, err := st.RepairIncremental(faultSetOf(tr, cur), st.DirtySwitches(prev, cur))
	if err != nil {
		t.Fatalf("RepairIncremental: %v", err)
	}
	return deltas
}

// checkEquivalence runs the full-scan oracle on a pristine clone under the
// same view and demands identical remapped count, broken list, and tables.
func checkEquivalence(t *testing.T, st *RepairState, pristine *ib.Subnet, view [][2]int32) {
	t.Helper()
	tr := pristine.Tree
	scratch := cloneLFTs(pristine)
	remapped, broken, err := RepairSubnet(scratch, faultSetOf(tr, view))
	if err != nil {
		t.Fatalf("RepairSubnet: %v", err)
	}
	if got := st.Remapped(); got != remapped {
		t.Fatalf("remapped: incremental %d, oracle %d (view %v)", got, remapped, view)
	}
	gotBroken := st.BrokenEntries()
	if len(gotBroken) != len(broken) || st.Broken() != len(broken) {
		t.Fatalf("broken: incremental %d entries (count %d), oracle %d (view %v)",
			len(gotBroken), st.Broken(), len(broken), view)
	}
	for i := range broken {
		if gotBroken[i] != broken[i] {
			t.Fatalf("broken[%d]: incremental %+v, oracle %+v", i, gotBroken[i], broken[i])
		}
	}
	target, err := st.TargetLFTs()
	if err != nil {
		t.Fatalf("TargetLFTs: %v", err)
	}
	for sw := range target {
		want := scratch.LFTs[sw].Entries()
		got := target[sw].Entries()
		if len(want) != len(got) {
			t.Fatalf("switch %d: table sizes differ (%d vs %d)", sw, len(got), len(want))
		}
		for lid := range want {
			if got[lid] != want[lid] {
				t.Fatalf("switch %d lid %d: incremental port %d, oracle %d (view %v)",
					sw, lid, got[lid], want[lid], view)
			}
			if p := st.TargetPort(topology.SwitchID(sw), ib.LID(lid)); lid > 0 && p != want[lid] {
				t.Fatalf("TargetPort(%d, %d) = %d, oracle %d", sw, lid, p, want[lid])
			}
		}
	}
}

// propertyTrees are the fabrics the equivalence property roams over.
func propertyTrees() []*topology.Tree {
	return []*topology.Tree{
		topology.MustNew(4, 2),
		topology.MustNew(8, 3),
		topology.MustNew(16, 2),
	}
}

// TestQuickRepairIncrementalEquivalence: for random fault sets applied as a
// sequence of incrementally-composed views (links dying and reviving,
// overlapping at shared switches), the incremental repair state matches the
// one-shot full-scan oracle after every step — same remapped count, same
// broken set, byte-identical tables.
func TestQuickRepairIncrementalEquivalence(t *testing.T) {
	trees := propertyTrees()
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme.Name(), func(t *testing.T) {
			pristine := make([]*ib.Subnet, len(trees))
			for i, tr := range trees {
				pristine[i] = configured(t, tr.M(), tr.N(), scheme)
			}
			f := func(rawTree uint8, raw []uint16, revive []uint8) bool {
				if len(raw) > 8 {
					raw = raw[:8]
				}
				if len(revive) > 5 {
					revive = revive[:5]
				}
				sn := pristine[int(rawTree)%len(pristine)]
				tr := sn.Tree
				links := randomLinks(tr, raw)
				st := NewRepairState(sn)
				var view [][2]int32
				// Grow the view link by link, checking after each step.
				for _, l := range links {
					prev := append([][2]int32(nil), view...)
					view = append(view, l)
					advance(t, st, tr, prev, view)
					checkEquivalence(t, st, sn, view)
				}
				// Revive a deterministic subset, one link at a time.
				for _, r := range revive {
					if len(view) == 0 {
						break
					}
					i := int(r) % len(view)
					prev := append([][2]int32(nil), view...)
					view = append(view[:i], view[i+1:]...)
					advance(t, st, tr, prev, view)
					checkEquivalence(t, st, sn, view)
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1009))}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRepairIncrementalComposedVsOneShot: a state evolved through a fault
// sequence equals a fresh state jumping straight to the final view, and the
// concatenated deltas replay onto pristine clones into the oracle's tables.
func TestRepairIncrementalComposedVsOneShot(t *testing.T) {
	for _, tr := range propertyTrees() {
		sn := configured(t, tr.M(), tr.N(), NewMLID())
		rng := rand.New(rand.NewSource(7331))
		var raw []uint16
		for i := 0; i < 12; i++ {
			raw = append(raw, uint16(rng.Intn(1<<16)))
		}
		links := randomLinks(tr, raw)

		evolved := NewRepairState(sn)
		replay := cloneLFTs(sn)
		var view [][2]int32
		for _, l := range links {
			prev := append([][2]int32(nil), view...)
			view = append(view, l)
			for _, d := range advance(t, evolved, tr, prev, view) {
				for _, e := range d.Entries {
					if err := replay.LFTs[int(d.Switch)].Set(e.LID, e.Port); err != nil {
						t.Fatalf("replaying delta: %v", err)
					}
				}
			}
		}

		oneShot := NewRepairState(sn)
		advance(t, oneShot, tr, nil, view)
		checkEquivalence(t, oneShot, sn, view)
		checkEquivalence(t, evolved, sn, view)

		// The replayed deltas alone must reconstruct the oracle's tables.
		scratch := cloneLFTs(sn)
		if _, _, err := RepairSubnet(scratch, faultSetOf(tr, view)); err != nil {
			t.Fatalf("RepairSubnet: %v", err)
		}
		for sw := range scratch.LFTs {
			want := scratch.LFTs[sw].Entries()
			got := replay.LFTs[sw].Entries()
			for lid := range want {
				if got[lid] != want[lid] {
					t.Fatalf("FT(%d,%d) switch %d lid %d: replayed %d, oracle %d",
						tr.M(), tr.N(), sw, lid, got[lid], want[lid])
				}
			}
		}
	}
}

// TestRepairStatesShareIndex: repair states on one subnet, created
// concurrently, all read the subnet's one reverse index, so every state
// after the first costs O(switches) — its overlay and broken lists — and
// not the O(LID space) an index of its own would.
func TestRepairStatesShareIndex(t *testing.T) {
	sn := configured(t, 8, 3, NewMLID())
	states := make([]*RepairState, 4)
	var wg sync.WaitGroup
	for i := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			states[i] = NewRepairState(sn)
		}()
	}
	wg.Wait()
	idx := sn.PortLIDIndex()
	for i, st := range states {
		if st.idx != idx {
			t.Fatalf("state %d reads its own reverse index, not the subnet's", i)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := NewRepairState(sn)
	runtime.ReadMemStats(&after)
	if st.idx != idx {
		t.Fatal("a later state reads its own reverse index, not the subnet's")
	}
	perSwitch := (after.TotalAlloc - before.TotalAlloc) / uint64(sn.Tree.Switches())
	if perSwitch > 128 {
		t.Errorf("a second RepairState allocated %d bytes per switch, want O(switches) (<= 128 per switch); the LID space is %d",
			perSwitch, sn.LIDSpace())
	}
}
