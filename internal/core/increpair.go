package core

import (
	"fmt"
	"slices"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// This file is the incremental counterpart of RepairSubnet: instead of
// re-scanning every forwarding entry on every fault event, a RepairState
// reads the pristine subnet's port→LIDs reverse index (ib.PortLIDIndex,
// built once per subnet and shared by every state on it) and carries the
// current divergence (overlay) from pristine per switch.
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

// RepairState evolves a subnet's repair target incrementally. The pristine
// subnet is read-only reference data; the state tracks, per switch, the
// overlay (entries diverging from pristine, i.e. remapped ascending entries)
// and the broken (irreparable descending) entries under the current fault
// set. The repair target at any moment is pristine + overlay.
type RepairState struct {
	sn      *ib.Subnet
	idx     *ib.PortLIDIndex
	overlay [][]RepairEntry // per switch, ascending LID
	broken  [][]BrokenEntry // per switch, ascending LID

	remapped    int
	brokenCount int

	// scratch reused across RepairIncremental calls.
	cand   []ib.LID
	liveUp []int
}

// NewRepairState starts an empty repair over the subnet's tables, which must
// be pristine (unrepaired): they become the baseline every delta is computed
// against, and the subnet's reverse index (sn.PortLIDIndex, built on the
// first state's call and shared by every later one) is read from them. The
// state itself costs O(switches); the subnet is only ever read.
func NewRepairState(sn *ib.Subnet) *RepairState {
	n := sn.Tree.Switches()
	return &RepairState{
		sn:      sn,
		idx:     sn.PortLIDIndex(),
		overlay: make([][]RepairEntry, n),
		broken:  make([][]BrokenEntry, n),
	}
}

// DirtySwitches computes which switches' repair decisions can change between
// two fault sets: the switches with an endpoint dead in exactly one of them,
// ascending. FailLink registers both switch-side endpoints of a link, so
// these are both ends of every link that died or revived; a repaired table
// is a pure function of (pristine table, dead ports at that switch), so
// every switch outside this set keeps its previous target byte for byte.
func (st *RepairState) DirtySwitches(prev, cur *FaultSet) []topology.SwitchID {
	return prev.DiffSwitches(cur)
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
		liveUp := st.liveUp[:0]
		for k := down; k < m; k++ {
			if !faults.Dead(sw, k) {
				liveUp = append(liveUp, k)
			}
		}
		st.liveUp = liveUp
		// Candidate entries: only those whose pristine port is dead here.
		st.cand = st.cand[:0]
		for k := 0; k < m; k++ {
			if faults.Dead(sw, k) {
				st.cand = append(st.cand, st.idx.LIDs(sw, k)...)
			}
		}
		// Each LID has one pristine port, so candidates are disjoint across
		// ports; a sort restores the ascending scan order of the oracle.
		slices.Sort(st.cand)
		// The new overlay and broken list outlive this call, so a counting
		// pass sizes each exactly before the filling pass.
		lft := st.sn.LFTs[s]
		// An entry breaks when it descends or no up-port survives.
		broken := func(lid ib.LID) bool { return int(lft.Port(lid))-1 < down || len(liveUp) == 0 }
		nBroken := 0
		for _, lid := range st.cand {
			if broken(lid) {
				nBroken++
			}
		}
		var neu []RepairEntry
		var brk []BrokenEntry
		if n := len(st.cand) - nBroken; n > 0 {
			neu = make([]RepairEntry, 0, n)
		}
		if nBroken > 0 {
			brk = make([]BrokenEntry, 0, nBroken)
		}
		for _, lid := range st.cand {
			if broken(lid) {
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
		if d := diffOverlays(old, neu, lft); len(d) > 0 {
			deltas = append(deltas, SwitchDelta{Switch: sw, Entries: d})
		}
	}
	return deltas, nil
}

// diffOverlays merge-diffs two ascending overlays into the delta that turns
// (pristine + old) into (pristine + neu): entries only in old revert to
// their pristine port, entries only in neu (or remapped differently) take
// the new port. A counting merge sizes the delta exactly before the filling
// one; an empty delta is nil.
func diffOverlays(old, neu []RepairEntry, pristine *ib.LFT) []RepairEntry {
	n := mergeOverlays(old, neu, pristine, nil)
	if n == 0 {
		return nil
	}
	out := make([]RepairEntry, n)
	mergeOverlays(old, neu, pristine, out)
	return out
}

// mergeOverlays is diffOverlays' merge: it writes the delta's entries into
// out, which must have room for them, or only counts them when out is nil,
// and returns their number.
func mergeOverlays(old, neu []RepairEntry, pristine *ib.LFT, out []RepairEntry) int {
	n := 0
	put := func(e RepairEntry) {
		if out != nil {
			out[n] = e
		}
		n++
	}
	i, j := 0, 0
	for i < len(old) || j < len(neu) {
		switch {
		case j >= len(neu) || (i < len(old) && old[i].LID < neu[j].LID):
			put(RepairEntry{LID: old[i].LID, Port: pristine.Port(old[i].LID)})
			i++
		case i >= len(old) || neu[j].LID < old[i].LID:
			put(neu[j])
			j++
		default:
			if old[i].Port != neu[j].Port {
				put(neu[j])
			}
			i++
			j++
		}
	}
	return n
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

// TargetLFTs materializes the current repair target (pristine + overlay):
// a clone for each switch with a non-empty overlay, the pristine table
// itself for every other switch. The result is read-only — writing to an
// entry would write to the pristine subnet — which suits its callers, the
// static verification of a repair and the equivalence tests.
func (st *RepairState) TargetLFTs() ([]*ib.LFT, error) {
	out := make([]*ib.LFT, len(st.sn.LFTs))
	for i, lft := range st.sn.LFTs {
		if len(st.overlay[i]) == 0 {
			out[i] = lft
			continue
		}
		out[i] = lft.Clone()
		for _, e := range st.overlay[i] {
			if err := out[i].Set(e.LID, e.Port); err != nil {
				return nil, fmt.Errorf("core: materializing repair target for switch %d: %w", i, err)
			}
		}
	}
	return out, nil
}
