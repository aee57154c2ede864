package core

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mlid/internal/topology"
)

// linkEnd names one switch-side endpoint of a link.
type linkEnd struct {
	sw   topology.SwitchID
	port int
}

// mapFaults is the fault set FaultSet was before it became a bitset: a map
// of registered endpoints, both switch-side ends of every link of view.
// It is FuzzLinkSet's oracle for Dead, Len and Equal.
func mapFaults(tr *topology.Tree, view [][2]int32) map[linkEnd]bool {
	dead := map[linkEnd]bool{}
	for _, e := range view {
		sw, port := topology.SwitchID(e[0]), int(e[1])
		dead[linkEnd{sw, port}] = true
		if ref := tr.SwitchNeighbor(sw, port); ref.Kind == topology.KindSwitch {
			dead[linkEnd{ref.Switch, ref.Port}] = true
		}
	}
	return dead
}

// symDiffSwitches is DirtySwitches as it was over dead-link views: both
// switch-side ends of every link in exactly one of the views, ascending
// and once each. It is FuzzLinkSet's oracle for DirtySwitches.
func symDiffSwitches(tr *topology.Tree, prev, cur [][2]int32) []topology.SwitchID {
	var dirty []topology.SwitchID
	add := func(e [2]int32) {
		sw := topology.SwitchID(e[0])
		dirty = append(dirty, sw)
		if ref := tr.SwitchNeighbor(sw, int(e[1])); ref.Kind == topology.KindSwitch {
			dirty = append(dirty, ref.Switch)
		}
	}
	for _, e := range cur {
		if !slices.Contains(prev, e) {
			add(e)
		}
	}
	for _, e := range prev {
		if !slices.Contains(cur, e) {
			add(e)
		}
	}
	slices.Sort(dirty)
	return slices.Compact(dirty)
}

// canonical names a link by its lower-numbered switch end, so a view holds
// each dead link once whichever end named it.
func canonical(tr *topology.Tree, sw topology.SwitchID, port int) [2]int32 {
	if ref := tr.SwitchNeighbor(sw, port); ref.Kind == topology.KindSwitch && ref.Switch < sw {
		return [2]int32{int32(ref.Switch), int32(ref.Port)}
	}
	return [2]int32{int32(sw), int32(port)}
}

// FuzzLinkSet drives a FaultSet through random sequences of link and
// whole-switch failures and revivals on FT(4,2) and FT(4,3), each named
// from either end of the link, and after every step holds it against the
// reference implementations above: Dead and Len against the map of the
// dead-link view, AppendPorts against the map's keys, Equal against the
// maps' equality (with the set of the previous step, a set rebuilt from the
// view and the empty set), and DirtySwitches against the views' symmetric
// difference. The in-place Copy carries each step's set into the next
// step's comparison. Run it longer by hand with
// `go test -run xxx -fuzz FuzzLinkSet -fuzztime 5m ./internal/core/`.
func FuzzLinkSet(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	trees := []*topology.Tree{topology.MustNew(4, 2), topology.MustNew(4, 3)}
	states := []*RepairState{NewRepairState(configured(f, 4, 2, NewMLID())), NewRepairState(configured(f, 4, 3, NewMLID()))}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		i := rng.Intn(len(trees))
		tr, st := trees[i], states[i]
		set, prevSet := NewFaultSet(), NewFaultSet()
		var view, prevView [][2]int32
		// apply fails or revives the link at (sw, port), named from a
		// random end, in the set (by FailLink or Mark) and the view.
		apply := func(sw topology.SwitchID, port int, fail bool) {
			key := canonical(tr, sw, port)
			if ref := tr.SwitchNeighbor(sw, port); ref.Kind == topology.KindSwitch && rng.Intn(2) == 0 {
				sw, port = ref.Switch, ref.Port
			}
			if fail && rng.Intn(2) == 0 {
				set.FailLink(tr, sw, port)
			} else {
				set.Mark(tr, sw, port, fail)
			}
			if at := slices.Index(view, key); fail && at < 0 {
				view = append(view, key)
			} else if !fail && at >= 0 {
				view = slices.Delete(view, at, at+1)
			}
		}
		for step := rng.Intn(40); step > 0; step-- {
			sw := topology.SwitchID(rng.Intn(tr.Switches()))
			fail := rng.Intn(3) > 0
			if rng.Intn(5) == 0 {
				for port := 0; port < tr.M(); port++ {
					apply(sw, port, fail)
				}
			} else {
				apply(sw, rng.Intn(tr.M()), fail)
			}
			want := mapFaults(tr, view)
			if set.Len() != len(want) {
				t.Fatalf("step %d, view %v: Len %d, map %d", step, view, set.Len(), len(want))
			}
			var wantPorts [][2]int32 // the map's keys, ascending
			for s := 0; s < tr.Switches(); s++ {
				for p := 0; p < tr.M(); p++ {
					dead := want[linkEnd{topology.SwitchID(s), p}]
					if got := set.Dead(topology.SwitchID(s), p); got != dead {
						t.Fatalf("step %d, view %v: Dead(%d, %d) = %v", step, view, s, p, got)
					}
					if dead {
						wantPorts = append(wantPorts, [2]int32{int32(s), int32(p)})
					}
				}
			}
			if ports := set.AppendPorts(nil); !slices.Equal(ports, wantPorts) {
				t.Fatalf("step %d, view %v: AppendPorts %v, map %v", step, view, ports, wantPorts)
			}
			if eq, wantEq := set.Equal(prevSet), maps.Equal(want, mapFaults(tr, prevView)); eq != wantEq || prevSet.Equal(set) != wantEq {
				t.Fatalf("step %d, views %v and %v: Equal %v, maps equal %v", step, prevView, view, eq, wantEq)
			}
			if rebuilt := faultSetOf(tr, view); !set.Equal(rebuilt) || !rebuilt.Equal(set) {
				t.Fatalf("step %d, view %v: not Equal to the set rebuilt from its view", step, view)
			}
			if empty := NewFaultSet(); set.Equal(empty) != (len(view) == 0) || empty.Equal(set) != (len(view) == 0) {
				t.Fatalf("step %d, view %v: Equal to the empty set %v", step, view, set.Equal(empty))
			}
			wantDirty := symDiffSwitches(tr, prevView, view)
			// The dirty list is the state's scratch: the first is copied
			// before the second call reuses it.
			for _, got := range [][]topology.SwitchID{slices.Clone(st.DirtySwitches(prevSet, set)), st.DirtySwitches(set, prevSet)} {
				if !slices.Equal(got, wantDirty) {
					t.Fatalf("step %d, views %v -> %v: DirtySwitches %v, symmetric difference %v", step, prevView, view, got, wantDirty)
				}
			}
			prevSet.Copy(set)
			prevView = append(prevView[:0], view...)
		}
	})
}
