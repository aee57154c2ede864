package core

import (
	"fmt"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// FaultSet records failed links: topology.LinkSet, the one dead-link set the
// repair, the subnet manager, the simulator and the verifier share. Marking
// one direction of a link marks the whole bidirectional link, matching how a
// subnet manager reacts to a dead port pair. The zero value is empty.
type FaultSet = topology.LinkSet

// NewFaultSet returns an empty fault set.
func NewFaultSet() *FaultSet { return &FaultSet{} }

// SelectLID performs fault-avoiding path selection: the LMC-multipath
// failover that motivates multiple LIDs in practice. It first tries the
// scheme's canonical DLID; if that path crosses a failed link it scans
// cyclically from the canonical offset for the nearest surviving LID — the
// same order the simulator's source reselection uses, so a static analysis
// built on this function predicts the load the simulated sources actually
// place. The cyclic start matters: canonical offsets are spread across
// sources, so failover spreads too, instead of every affected source piling
// onto the lowest-numbered survivor. This is an extension beyond the paper
// (which assumes a healthy fabric): the MLID addressing makes recovery a
// source-local DLID rewrite, with no forwarding-table reprogramming, while
// SLID (one LID) has no alternative to offer.
//
// It returns the chosen DLID, and ok=false when every named path is
// blocked. Each candidate is checked by walking its route without recording
// it, so selection allocates nothing.
func SelectLID(t *topology.Tree, s Scheme, src, dst topology.NodeID, faults *FaultSet) (ib.LID, bool) {
	canonical := s.DLID(t, src, dst)
	if usable(t, s, src, dst, canonical, faults) {
		return canonical, true
	}
	base := s.BaseLID(t, dst)
	count := 1 << s.LMC(t)
	start := int(canonical) - int(base)
	if start < 0 || start >= count {
		start = 0
	}
	for i := 1; i < count; i++ {
		if lid := base + ib.LID((start+i)%count); usable(t, s, src, dst, lid, faults) {
			return lid, true
		}
	}
	return 0, false
}

// SelectDLID is SelectLID for callers that also want the surviving path:
// the DLID SelectLID chooses, its route as TraceLID resolves it, and
// ok=false (with a zero Path) when every named path is blocked. Callers that
// need only the DLID should call SelectLID, which builds no path.
func SelectDLID(t *topology.Tree, s Scheme, src, dst topology.NodeID, faults *FaultSet) (ib.LID, Path, bool) {
	lid, ok := SelectLID(t, s, src, dst, faults)
	if !ok {
		return 0, Path{}, false
	}
	p, _ := TraceLID(t, s, src, lid) // SelectLID walked this route to dst
	return lid, p, true
}

// usable reports whether dlid's route from src delivers to dst without
// crossing a failed link: TraceLID succeeding at dst with no hop entering or
// leaving through a failed link, by the same walk, with no path built.
func usable(t *topology.Tree, s Scheme, src, dst topology.NodeID, dlid ib.LID, faults *FaultSet) bool {
	end := walkLID(t, s, src, dlid, faults, nil)
	return end.stop == walkDelivered && end.dst == dst
}

// UsableOffsets enumerates the candidate path offsets for (src, dst) exactly
// as a running simulation would present them to a path Selector: base is the
// destination's base LID, count the scheme's offset range (capped at 64 to
// match the mask width), canonical the scheme's static choice, and mask has
// bit i set when LID base+i traces to dst without crossing a failed link —
// SelectLID's check, so building the mask allocates nothing.
// The mask is zero only when the fault set disconnects the pair entirely.
func UsableOffsets(t *topology.Tree, s Scheme, src, dst topology.NodeID, faults *FaultSet) (base ib.LID, count, canonical int, mask uint64) {
	base = s.BaseLID(t, dst)
	count = 1 << s.LMC(t)
	if count > 64 {
		count = 64
	}
	canonical = int(s.DLID(t, src, dst) - base)
	if canonical < 0 || canonical >= count {
		canonical = 0
	}
	for off := 0; off < count; off++ {
		if usable(t, s, src, dst, base+ib.LID(off), faults) {
			mask |= 1 << uint(off)
		}
	}
	return base, count, canonical, mask
}

// Reachability reports, for a given fault set, how many (src, dst) pairs the
// scheme can still serve through some named LID, over all ordered pairs of
// distinct nodes. It is used to compare MLID's and SLID's fault tolerance.
func Reachability(t *topology.Tree, s Scheme, faults *FaultSet) (served, total int, err error) {
	for a := 0; a < t.Nodes(); a++ {
		for b := 0; b < t.Nodes(); b++ {
			if a == b {
				continue
			}
			total++
			if _, ok := SelectLID(t, s, topology.NodeID(a), topology.NodeID(b), faults); ok {
				served++
			}
		}
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("core: no node pairs in %v", t)
	}
	return served, total, nil
}
