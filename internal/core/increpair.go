package core

import (
	"fmt"
	"sort"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// This file is the incremental counterpart of RepairSubnet: instead of
// re-scanning every forwarding entry on every fault event, a RepairState
// carries a per-switch port→LIDs reverse index built once from the pristine
// tables, plus the current divergence (overlay) from pristine per switch.
// A fault-set change then only revisits the entries that could possibly be
// affected — the entries whose pristine port is dead at a dirty switch —
// and the repair is emitted directly as a delta against the previous repair
// target. RepairSubnet remains the equivalence oracle (see the property
// tests): for any fault set, pristine + overlay is byte-identical to what
// RepairSubnet produces on a pristine clone.

// RepairEntry is one forwarding-table rewrite: DLID → physical out-port.
type RepairEntry struct {
	LID  ib.LID
	Port uint8
}

// SwitchDelta is one switch's table delta between two repair targets,
// entries in ascending LID order.
type SwitchDelta struct {
	Switch  topology.SwitchID
	Entries []RepairEntry
}

// PortLIDIndex is the reverse index: for each (switch, abstract out-port),
// the ascending list of DLIDs whose pristine forwarding entry at that switch
// exits through the port. Built once at configure time; a dead link then
// names exactly the candidate entries instead of the whole LID space. The
// lists share one flat array: slot i's LIDs are lids[off[i]:off[i+1]].
type PortLIDIndex struct {
	m    int
	off  []int32
	lids []ib.LID
}

// BuildPortLIDIndex scans the subnet's (pristine) forwarding tables twice:
// once to count each slot's entries, then, with off[i] advanced to the end of
// slot i, once more in descending LID order, stepping each slot's offset back
// to its start as it fills. The index costs two allocations whatever the
// fabric's size.
func BuildPortLIDIndex(sn *ib.Subnet) *PortLIDIndex {
	t := sn.Tree
	m, slots := t.M(), t.Switches()*t.M()
	x := &PortLIDIndex{m: m, off: make([]int32, slots+1)}
	for s := 0; s < t.Switches(); s++ {
		lft := sn.LFTs[s]
		for lid := 1; lid < lft.Size(); lid++ {
			if k := outPort(lft, lid, m); k >= 0 {
				x.off[s*m+k]++
			}
		}
	}
	for i := 1; i <= slots; i++ {
		x.off[i] += x.off[i-1]
	}
	x.lids = make([]ib.LID, x.off[slots])
	for s := 0; s < t.Switches(); s++ {
		lft := sn.LFTs[s]
		for lid := lft.Size() - 1; lid >= 1; lid-- {
			if k := outPort(lft, lid, m); k >= 0 {
				x.off[s*m+k]--
				x.lids[x.off[s*m+k]] = ib.LID(lid)
			}
		}
	}
	return x
}

// outPort returns the abstract out-port of lid's entry in lft, or -1 when the
// entry is unrouted or names no port of an m-port switch.
func outPort(lft *ib.LFT, lid, m int) int {
	phys := lft.Port(ib.LID(lid))
	if phys == ib.PortNone || phys == 0 || int(phys) > m {
		return -1
	}
	return int(phys) - 1
}

// LIDs returns the DLIDs routed through (sw, abstract port) in the pristine
// tables, ascending. The returned slice is shared and capped, so an append
// to it copies; callers must not mutate it.
func (x *PortLIDIndex) LIDs(sw topology.SwitchID, port int) []ib.LID {
	i := int(sw)*x.m + port
	return x.lids[x.off[i]:x.off[i+1]:x.off[i+1]]
}

// RepairState evolves a subnet's repair target incrementally. The pristine
// subnet is read-only reference data; the state tracks, per switch, the
// overlay (entries diverging from pristine, i.e. remapped ascending entries)
// and the broken (irreparable descending) entries under the current fault
// set. The repair target at any moment is pristine + overlay.
type RepairState struct {
	sn      *ib.Subnet
	idx     *PortLIDIndex
	overlay [][]RepairEntry // per switch, ascending LID
	broken  [][]BrokenEntry // per switch, ascending LID

	remapped    int
	brokenCount int

	// scratch reused across RepairIncremental calls.
	cand []ib.LID
}

// NewRepairState builds the reverse index over the subnet's current tables,
// which must be pristine (unrepaired): they become the baseline every delta
// is computed against.
func NewRepairState(sn *ib.Subnet) *RepairState {
	n := sn.Tree.Switches()
	return &RepairState{
		sn:      sn,
		idx:     BuildPortLIDIndex(sn),
		overlay: make([][]RepairEntry, n),
		broken:  make([][]BrokenEntry, n),
	}
}

// DirtySwitches computes which switches' repair decisions can change between
// two dead-link views: both switch-side endpoints of every link in the
// symmetric difference, ascending and deduplicated. Views are slices of
// (switch, abstract port) pairs as the simulator's SM holds them; a repaired
// table is a pure function of (pristine table, dead ports at that switch),
// so every switch outside this set keeps its previous target byte for byte.
func (st *RepairState) DirtySwitches(prev, cur [][2]int32) []topology.SwitchID {
	inPrev := make(map[[2]int32]bool, len(prev))
	for _, e := range prev {
		inPrev[e] = true
	}
	inCur := make(map[[2]int32]bool, len(cur))
	for _, e := range cur {
		inCur[e] = true
	}
	t := st.sn.Tree
	var dirty []topology.SwitchID
	add := func(e [2]int32) {
		sw := topology.SwitchID(e[0])
		dirty = append(dirty, sw)
		if ref := t.SwitchNeighbor(sw, int(e[1])); ref.Kind == topology.KindSwitch {
			dirty = append(dirty, ref.Switch)
		}
	}
	for _, e := range cur {
		if !inPrev[e] {
			add(e)
		}
	}
	for _, e := range prev {
		if !inCur[e] {
			add(e)
		}
	}
	if len(dirty) == 0 {
		return nil
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	out := dirty[:1]
	for _, sw := range dirty[1:] {
		if sw != out[len(out)-1] {
			out = append(out, sw)
		}
	}
	return out
}

// RepairIncremental re-derives the repair decisions of the dirty switches
// against the full fault set and returns the delta from the previous repair
// target to the new one — remapped entries, changed remappings, and reverts
// back to pristine (newly broken entries keep their pristine value, exactly
// as RepairSubnet leaves them in place). Deltas come out in ascending
// (switch, LID) order; dirty must be ascending (as DirtySwitches returns).
// Switches outside dirty are assumed unaffected by the fault-set change.
func (st *RepairState) RepairIncremental(faults *FaultSet, dirty []topology.SwitchID) ([]SwitchDelta, error) {
	t := st.sn.Tree
	m := t.M()
	var deltas []SwitchDelta
	for _, sw := range dirty {
		s := int(sw)
		if s < 0 || s >= len(st.overlay) {
			return deltas, fmt.Errorf("core: incremental repair: switch %d out of range", s)
		}
		down := t.DownPorts(sw)
		// Live up-ports under the current fault set, ascending — the same
		// alternative set RepairSubnet spreads remapped traffic over.
		var liveUp []int
		for k := down; k < m; k++ {
			if !faults.Dead(sw, k) {
				liveUp = append(liveUp, k)
			}
		}
		// Candidate entries: only those whose pristine port is dead here.
		st.cand = st.cand[:0]
		for k := 0; k < m; k++ {
			if faults.Dead(sw, k) {
				st.cand = append(st.cand, st.idx.LIDs(sw, k)...)
			}
		}
		// Each LID has one pristine port, so candidates are disjoint across
		// ports; a sort restores the ascending scan order of the oracle.
		sort.Slice(st.cand, func(i, j int) bool { return st.cand[i] < st.cand[j] })
		var neu []RepairEntry
		var brk []BrokenEntry
		for _, lid := range st.cand {
			phys := st.sn.LFTs[s].Port(lid)
			k := int(phys) - 1
			if k < down || len(liveUp) == 0 {
				brk = append(brk, BrokenEntry{Switch: sw, DLID: lid})
				continue
			}
			alt := liveUp[int(lid)%len(liveUp)]
			neu = append(neu, RepairEntry{LID: lid, Port: uint8(alt + 1)})
		}
		old := st.overlay[s]
		st.remapped += len(neu) - len(old)
		st.brokenCount += len(brk) - len(st.broken[s])
		st.broken[s] = brk
		st.overlay[s] = neu
		if d := diffOverlays(old, neu, st.sn.LFTs[s]); len(d) > 0 {
			deltas = append(deltas, SwitchDelta{Switch: sw, Entries: d})
		}
	}
	return deltas, nil
}

// diffOverlays merge-diffs two ascending overlays into the delta that turns
// (pristine + old) into (pristine + neu): entries only in old revert to
// their pristine port, entries only in neu (or remapped differently) take
// the new port.
func diffOverlays(old, neu []RepairEntry, pristine *ib.LFT) []RepairEntry {
	var out []RepairEntry
	i, j := 0, 0
	for i < len(old) || j < len(neu) {
		switch {
		case j >= len(neu) || (i < len(old) && old[i].LID < neu[j].LID):
			out = append(out, RepairEntry{LID: old[i].LID, Port: pristine.Port(old[i].LID)})
			i++
		case i >= len(old) || neu[j].LID < old[i].LID:
			out = append(out, neu[j])
			j++
		default:
			if old[i].Port != neu[j].Port {
				out = append(out, neu[j])
			}
			i++
			j++
		}
	}
	return out
}

// TargetPort returns the current repair target's entry for (sw, lid):
// the overlay value when the entry is remapped, the pristine value
// otherwise. O(log overlay) — safe inside per-event SM handlers.
func (st *RepairState) TargetPort(sw topology.SwitchID, lid ib.LID) uint8 {
	ov := st.overlay[int(sw)]
	lo, hi := 0, len(ov)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ov[mid].LID < lid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ov) && ov[lo].LID == lid {
		return ov[lo].Port
	}
	return st.sn.LFTs[int(sw)].Port(lid)
}

// Remapped returns the total number of entries currently diverging from
// pristine (RepairSubnet's remapped count for the same fault set).
func (st *RepairState) Remapped() int { return st.remapped }

// Broken returns the current number of irreparable entries.
func (st *RepairState) Broken() int { return st.brokenCount }

// BrokenEntries flattens the per-switch broken lists into RepairSubnet's
// reporting order: ascending switch, ascending LID.
func (st *RepairState) BrokenEntries() []BrokenEntry {
	if st.brokenCount == 0 {
		return nil
	}
	out := make([]BrokenEntry, 0, st.brokenCount)
	for _, b := range st.broken {
		out = append(out, b...)
	}
	return out
}

// TargetLFTs materializes the current repair target (pristine + overlay) as
// freshly cloned tables — the equivalence-oracle hook for tests, not a hot
// path.
func (st *RepairState) TargetLFTs() ([]*ib.LFT, error) {
	out := make([]*ib.LFT, len(st.sn.LFTs))
	for i, lft := range st.sn.LFTs {
		out[i] = lft.Clone()
		for _, e := range st.overlay[i] {
			if err := out[i].Set(e.LID, e.Port); err != nil {
				return nil, fmt.Errorf("core: materializing repair target for switch %d: %w", i, err)
			}
		}
	}
	return out, nil
}
