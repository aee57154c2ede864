package core

import (
	"fmt"
	"slices"

	"mlid/internal/arena"
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
//
// A state keeps every buffer it grows: Reset re-targets it to another
// pristine subnet, and once its buffers have reached a fault sequence's
// high-water sizes, DirtySwitches, RepairIncremental and TargetLFTs allocate
// nothing. What they return lives in those buffers, like the bytes of a
// bufio.Scanner: the dirty list until the next DirtySwitches, the deltas
// until the next RepairIncremental, the tables until the next TargetLFTs,
// and all of them until Reset. A caller that keeps a result longer copies
// it.
type RepairState struct {
	sn      *ib.Subnet
	idx     *ib.PortLIDIndex
	overlay [][]RepairEntry // per switch, ascending LID
	broken  [][]BrokenEntry // per switch, ascending LID
	// spare holds a dirty switch's old overlay for the merge while the new
	// one is built in the switch's own buffer, so each switch keeps its
	// buffer at its own high-water size.
	spare []RepairEntry

	remapped    int
	brokenCount int

	// The last RepairIncremental's deltas, whose entries share one flat
	// buffer.
	deltas []SwitchDelta
	delta  []RepairEntry
	// TargetLFTs' result and the per-switch tables it clones into.
	targets []*ib.LFT
	tables  []ib.LFT

	// scratch reused across calls.
	dirty  []topology.SwitchID
	cand   []ib.LID
	liveUp []int
}

// NewRepairState starts an empty repair over the subnet's tables, which must
// be pristine (unrepaired): they become the baseline every delta is computed
// against, and the subnet's reverse index (sn.PortLIDIndex, built on the
// first state's call and shared by every later one) is read from them. The
// state itself costs O(switches); the subnet is only ever read.
func NewRepairState(sn *ib.Subnet) *RepairState {
	st := &RepairState{}
	st.Reset(sn)
	return st
}

// Reset empties the state and re-targets it to sn's pristine tables, which
// may be another subnet's, of another size, exactly as NewRepairState(sn)
// would start it, but keeping every buffer for the next fault sequence.
// Results the state returned before are invalid after it. A nil sn drops
// every reference to the previous subnet and its tables, for a state left
// idle in a pool; the state is unusable until the next Reset.
func (st *RepairState) Reset(sn *ib.Subnet) {
	st.sn, st.idx = sn, nil
	n := 0
	if sn != nil {
		st.idx, n = sn.PortLIDIndex(), sn.Tree.Switches()
	}
	st.overlay = arena.RecycleKeep(st.overlay, n, func(o *[]RepairEntry) { *o = (*o)[:0] })
	st.broken = arena.RecycleKeep(st.broken, n, func(b *[]BrokenEntry) { *b = (*b)[:0] })
	st.remapped, st.brokenCount = 0, 0
	st.deltas, st.delta = st.deltas[:0], st.delta[:0]
	// targets holds pristine table pointers past its length too.
	clear(st.targets[:cap(st.targets)])
	st.targets = st.targets[:0]
}

// DirtySwitches computes which switches' repair decisions can change between
// two fault sets: the switches with an endpoint dead in exactly one of them,
// ascending. FailLink registers both switch-side endpoints of a link, so
// these are both ends of every link that died or revived; a repaired table
// is a pure function of (pristine table, dead ports at that switch), so
// every switch outside this set keeps its previous target byte for byte.
// The list is the state's scratch, valid until the next DirtySwitches.
func (st *RepairState) DirtySwitches(prev, cur *FaultSet) []topology.SwitchID {
	st.dirty = prev.DiffSwitches(st.dirty[:0], cur)
	return st.dirty
}

// RepairIncremental re-derives the repair decisions of the dirty switches
// against the full fault set and returns the delta from the previous repair
// target to the new one — remapped entries, changed remappings, and reverts
// back to pristine (newly broken entries keep their pristine value, exactly
// as RepairSubnet leaves them in place). Deltas come out in ascending
// (switch, LID) order; dirty must be ascending (as DirtySwitches returns).
// Switches outside dirty are assumed unaffected by the fault-set change.
// The deltas and their entries are the state's, valid until its next
// RepairIncremental or Reset.
func (st *RepairState) RepairIncremental(faults *FaultSet, dirty []topology.SwitchID) ([]SwitchDelta, error) {
	t := st.sn.Tree
	m := t.M()
	st.deltas, st.delta = st.deltas[:0], st.delta[:0]
	for _, sw := range dirty {
		s := int(sw)
		if s < 0 || s >= len(st.overlay) {
			return st.deltas, fmt.Errorf("core: incremental repair: switch %d out of range", s)
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
		lft := st.sn.LFTs[s]
		st.spare = append(st.spare[:0], st.overlay[s]...)
		old, neu, brk := st.spare, st.overlay[s][:0], st.broken[s][:0]
		for _, lid := range st.cand {
			// An entry breaks when it descends or no up-port survives.
			if int(lft.Port(lid))-1 < down || len(liveUp) == 0 {
				brk = append(brk, BrokenEntry{Switch: sw, DLID: lid})
				continue
			}
			alt := liveUp[int(lid)%len(liveUp)]
			neu = append(neu, RepairEntry{LID: lid, Port: uint8(alt + 1)})
		}
		st.remapped += len(neu) - len(old)
		st.brokenCount += len(brk) - len(st.broken[s])
		st.broken[s] = brk
		start := len(st.delta)
		st.delta = appendOverlayDiff(st.delta, old, neu, lft)
		if end := len(st.delta); end > start {
			// A later append may move st.delta; these entries stay put in
			// the array they were written to, which nothing writes again.
			st.deltas = append(st.deltas, SwitchDelta{Switch: sw, Entries: st.delta[start:end:end]})
		}
		st.overlay[s] = neu
	}
	return st.deltas, nil
}

// appendOverlayDiff merge-diffs two ascending overlays and appends to dst the
// delta that turns (pristine + old) into (pristine + neu): entries only in
// old revert to their pristine port, entries only in neu (or remapped
// differently) take the new port.
func appendOverlayDiff(dst, old, neu []RepairEntry, pristine *ib.LFT) []RepairEntry {
	i, j := 0, 0
	for i < len(old) || j < len(neu) {
		switch {
		case j >= len(neu) || (i < len(old) && old[i].LID < neu[j].LID):
			dst = append(dst, RepairEntry{LID: old[i].LID, Port: pristine.Port(old[i].LID)})
			i++
		case i >= len(old) || neu[j].LID < old[i].LID:
			dst = append(dst, neu[j])
			j++
		default:
			if old[i].Port != neu[j].Port {
				dst = append(dst, neu[j])
			}
			i++
			j++
		}
	}
	return dst
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
// for each switch with a non-empty overlay, a copy of its pristine table in
// the state's own storage; for every other switch, the pristine table
// itself. The result is read-only — writing to an aliased entry would write
// to the pristine subnet — which suits its callers, the static verification
// of a repair and the equivalence tests. The slice and the copies are the
// state's, valid until its next TargetLFTs or Reset.
func (st *RepairState) TargetLFTs() ([]*ib.LFT, error) {
	st.targets = append(st.targets[:0], st.sn.LFTs...)
	st.tables = arena.RecycleKeep(st.tables, len(st.targets), func(*ib.LFT) {})
	for i, ov := range st.overlay {
		if len(ov) == 0 {
			continue
		}
		lft := st.sn.LFTs[i].CloneInto(&st.tables[i])
		for _, e := range ov {
			if err := lft.Set(e.LID, e.Port); err != nil {
				return nil, fmt.Errorf("core: materializing repair target for switch %d: %w", i, err)
			}
		}
		st.targets[i] = lft
	}
	return st.targets, nil
}
