// Path selection as a pluggable policy. The paper's MLID scheme gives every
// destination a contiguous LID range (one LID per ascending path); which LID a
// source places in a packet's DLID field is a pure source-side choice, and
// this file makes that choice an interface instead of the former two-value
// enum. A Selector sees only the SelectContext — the candidate offsets, the
// fault-filtered usable mask, the flow identity and per-packet sequence
// number, the source node's seeded RNG stream, and a read-only CongestionView
// over the first-hop port state — never the Sim itself, which is what keeps
// every policy a bit-for-bit deterministic function of the run's Config (the
// selectorpure analyzer polices this contract; see DESIGN.md,
// "Path-selection policy layer").
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
)

// Selector chooses among a destination's LID offsets for each outgoing
// packet. Implementations must be pure functions of the SelectContext (plus
// the per-flow state word stateful selectors read and write through it): no
// wall clock, no global RNG, no simulator state beyond the CongestionView.
// Randomness must come from SelectContext.RNG — the source node's seeded
// stream — so a run is reproducible from its Config alone.
//
// A Selector value is shared by concurrent runs (it is configuration, not run
// state); per-run mutable state lives in the run's flow-state array, reached
// only through the context.
type Selector interface {
	// Name identifies the selector in CLI flags and experiment tables.
	Name() string
	// NeedsFlowState reports whether runs must allocate the per-(src,dst)
	// flow-state array the selector pins choices in. Stateful selectors are
	// limited to fabrics of at most 4096 nodes (validate enforces this).
	NeedsFlowState() bool
	// Select picks a LID offset in [0, c.Count) whose mask bit is set
	// (c.Mask is never zero), and reports whether the choice counts as a
	// fault reroute (Result.Reroutes).
	Select(c *SelectContext) (off int, rerouted bool)
}

// SelectContext is everything a Selector may consult for one packet.
type SelectContext struct {
	// Src and Dst identify the flow.
	Src, Dst topology.NodeID
	// Seq is the packet's sequence number within the flow: the generation
	// index for fresh packets (a retransmission carries its original index),
	// the cumulative-acknowledgment watermark for transport control packets.
	Seq uint32
	// RNG is the source node's seeded stream — the only randomness a
	// selector may draw.
	RNG *rand.Rand
	// Base..Base+Count-1 are the destination's LIDs; Count is capped at 64
	// to match the usable mask's width.
	Base ib.LID
	// Count is the number of candidate offsets.
	Count int
	// Mask has bit i set when offset i names a path not known to be dead.
	// With fault reselection inactive (or every tracked path dead) it is the
	// full mask over Count offsets; it is never zero.
	Mask uint64
	// Full reports Mask == the full mask: no candidate is masked out.
	Full bool
	// Canonical is the paper's rank-based offset for (Src, Dst) — the
	// scheme's static choice, always in [0, Count).
	Canonical int
	// View exposes the congestion state of the candidates' first-hop ports.
	View CongestionView

	// state is the flow's word in the run's selector-state array (selectors
	// with NeedsFlowState; nil otherwise). Zero means unset; stateful
	// selectors store offset+1.
	state *uint32
}

// CongestionView is the one window a Selector has onto live simulator state:
// the occupancy and credit counters (the vlFlow arrays) of the ports that
// candidate offsets route onto at the source's leaf switch. The counters
// change only as events dispatch in (t, seq) order, so reads through the view
// are bit-deterministic for a given Config.
type CongestionView struct {
	s *Sim
	// fwdBase indexes the leaf switch's compiled forwarding row at the
	// destination's base LID: entry fwdBase+off is offset off's first-hop
	// output port.
	fwdBase int
	dataVLs int
	// maxCred is the full credit pool of one port's data VLs
	// (DataVLs * BufPackets), the normalizer Load uses.
	maxCred int
}

// congestionUnreachable is the occupancy/load reported for an offset whose
// first-hop entry names no usable port (unrouted, or a dead link): worse than
// any live port can be.
const congestionUnreachable = 1 << 30

// Occupancy sums the packets resident in the first-hop output buffer that
// offset off routes onto, over the data VLs. Unrouted or dead: a huge value.
func (v CongestionView) Occupancy(off int) int {
	if v.s == nil {
		return 0 // static evaluation: an idle fabric
	}
	pid := v.s.fwdAt(v.fwdBase + off)
	if pid < 0 || v.s.ports[pid].dead {
		return congestionUnreachable
	}
	base := int(pid) * v.s.vls
	occ := 0
	for vl := 0; vl < v.dataVLs; vl++ {
		occ += int(v.s.cv[base+vl].occupancy)
	}
	return occ
}

// Credits sums the flow-control credits the first-hop port holds for its
// downstream input buffers, over the data VLs. Unrouted or dead: zero.
func (v CongestionView) Credits(off int) int {
	if v.s == nil {
		return v.maxCred // static evaluation: full credit pools
	}
	pid := v.s.fwdAt(v.fwdBase + off)
	if pid < 0 || v.s.ports[pid].dead {
		return 0
	}
	base := int(pid) * v.s.vls
	cred := 0
	for vl := 0; vl < v.dataVLs; vl++ {
		cred += int(v.s.cv[base+vl].credits)
	}
	return cred
}

// Load folds both signals into one ordering: buffered packets dominate
// (each occupancy unit outweighs the whole credit pool), exhausted downstream
// credits refine. Lower is less congested; unreachable offsets are +huge.
func (v CongestionView) Load(off int) int {
	occ := v.Occupancy(off)
	if occ >= congestionUnreachable {
		return congestionUnreachable
	}
	return occ*(v.maxCred+1) + (v.maxCred - v.Credits(off))
}

// nthSetBit returns the position of the k-th set bit of mask (k < popcount).
func nthSetBit(mask uint64, k int) int {
	for m := mask; ; m &= m - 1 {
		if k == 0 {
			return bits.TrailingZeros64(m)
		}
		k--
	}
}

// rankSelector is the paper's policy: the scheme's DLID function (the source's
// rank within its gcpg names the ascending path). Under faults it keeps the
// canonical offset while it survives and otherwise scans cyclically for the
// nearest survivor — exactly the pre-interface reselect behavior, so every
// golden fixture is bit-identical.
type rankSelector struct{}

func (rankSelector) Name() string         { return "rank" }
func (rankSelector) NeedsFlowState() bool { return false }

func (rankSelector) Select(c *SelectContext) (int, bool) {
	return failover(c, c.Canonical)
}

// failover keeps offset off while it survives and otherwise scans cyclically
// for the nearest survivor, which counts as a reroute.
func failover(c *SelectContext, off int) (int, bool) {
	if c.Mask&(1<<uint(off)) != 0 {
		return off, false
	}
	for i := 1; i < c.Count; i++ {
		o := (off + i) % c.Count
		if c.Mask&(1<<uint(o)) != 0 {
			return o, true
		}
	}
	return off, false // unreachable: Mask is never zero
}

// planSelector follows a profile-guided path plan (core.OptimizePaths): each
// planned flow starts from its planned offset, every other flow from the
// canonical one, and a dead choice fails over exactly as rank's does. A plan
// choice outside the destination's offsets falls back to the canonical one.
type planSelector struct{ plan *core.PathPlan }

func (planSelector) Name() string         { return "plan" }
func (planSelector) NeedsFlowState() bool { return false }

func (s planSelector) Select(c *SelectContext) (int, bool) {
	off := c.Canonical
	if lid, ok := s.plan.Lookup(c.Src, c.Dst); ok && lid >= c.Base && int(lid-c.Base) < c.Count {
		off = int(lid - c.Base)
	}
	return failover(c, off)
}

// randomSelector is the oblivious ablation: every packet draws a uniformly
// random usable offset. Draw-compatible with the pre-interface code: one
// Intn(alive) per packet when more than one candidate survives.
type randomSelector struct{}

func (randomSelector) Name() string         { return "random" }
func (randomSelector) NeedsFlowState() bool { return false }

func (randomSelector) Select(c *SelectContext) (int, bool) {
	alive := bits.OnesCount64(c.Mask)
	k := 0
	if alive > 1 {
		k = c.RNG.Intn(alive)
	}
	return nthSetBit(c.Mask, k), !c.Full
}

// flowSpraySelector pins each (src, dst) flow to one uniformly drawn offset at
// the flow's first packet — randomized load balancing without reordering: a
// flow never changes path unless a fault kills its pin, in which case it
// re-draws among the survivors (counted as a reroute).
type flowSpraySelector struct{}

func (flowSpraySelector) Name() string         { return "flowspray" }
func (flowSpraySelector) NeedsFlowState() bool { return true }

func (flowSpraySelector) Select(c *SelectContext) (int, bool) {
	displaced := false
	if st := *c.state; st != 0 {
		if off := int(st) - 1; off < c.Count && c.Mask&(1<<uint(off)) != 0 {
			return off, false
		}
		displaced = true
	}
	alive := bits.OnesCount64(c.Mask)
	k := 0
	if alive > 1 {
		k = c.RNG.Intn(alive)
	}
	off := nthSetBit(c.Mask, k)
	*c.state = uint32(off) + 1
	return off, displaced
}

// adaptiveHysteresisPackets is how many whole buffered packets of Load
// difference a candidate must show over the flow's current path before
// adaptive switches to it. One packet is maxCred+1 Load units, so the
// threshold (in units) is packets*(maxCred+1)+1: a single-packet or
// credit-level imbalance — ordinary queueing noise, gone by the time the
// rerouted packet arrives — never moves a flow off its path. Anything less
// makes every flow chase the same transient and the policy herds.
const adaptiveHysteresisPackets = 1

// adaptiveSelector picks the least-loaded usable offset from the congestion
// view. Each flow starts on its canonical (rank) path; ties among equally
// loaded candidates resolve to the smallest cyclic distance from the
// canonical offset, so flows sharing a least-loaded first-hop port still fan
// out over the deeper paths the scheme's static assignment spreads them
// across (several offsets map onto each physical up-port on trees with
// n > 2). A flow switches only when the best candidate undercuts its current
// path by more than adaptiveHysteresisPackets buffered packets — all
// deterministic, no RNG draws.
type adaptiveSelector struct{}

func (adaptiveSelector) Name() string         { return "adaptive" }
func (adaptiveSelector) NeedsFlowState() bool { return true }

func (adaptiveSelector) Select(c *SelectContext) (int, bool) {
	best, bestLoad, bestDist := -1, congestionUnreachable+1, 0
	for m := c.Mask; m != 0; m &= m - 1 {
		off := bits.TrailingZeros64(m)
		load := c.View.Load(off)
		dist := off - c.Canonical
		if dist < 0 {
			dist += c.Count
		}
		if load < bestLoad || (load == bestLoad && dist < bestDist) {
			best, bestLoad, bestDist = off, load, dist
		}
	}
	cur, displaced := -1, false
	if st := *c.state; st != 0 {
		cur = int(st) - 1
		if cur >= c.Count || c.Mask&(1<<uint(cur)) == 0 {
			cur, displaced = -1, true // the pinned path died: forced move
		}
	} else if c.Mask&(1<<uint(c.Canonical)) != 0 {
		cur = c.Canonical
	}
	hysteresis := adaptiveHysteresisPackets*(c.View.maxCred+1) + 1
	if cur >= 0 && cur != best && c.View.Load(cur)-bestLoad < hysteresis {
		best = cur
	}
	*c.state = uint32(best) + 1
	return best, displaced
}

// pktSpraySelector sprays every packet of a flow round-robin over the usable
// offsets: offset index (flowPhase + Seq) mod alive, where the phase is a hash
// of the flow identity so flows sharing a source decorrelate. Deterministic
// (no RNG draws), perfectly balanced per flow, and reordering by construction
// — it leans on the reliable transport's out-of-order buffering (PR 4) for
// resequencing, or on the OutOfOrder metric to quantify the damage without it.
type pktSpraySelector struct{}

func (pktSpraySelector) Name() string         { return "pktspray" }
func (pktSpraySelector) NeedsFlowState() bool { return false }

func (pktSpraySelector) Select(c *SelectContext) (int, bool) {
	alive := bits.OnesCount64(c.Mask)
	k := 0
	if alive > 1 {
		phase := uint32(c.Src)*0x9E3779B1 + uint32(c.Dst)*0x85EBCA77
		k = int((phase + c.Seq) % uint32(alive))
	}
	return nthSetBit(c.Mask, k), !c.Full
}

// The built-in selectors are stateless singletons: safe to share across
// concurrent runs and cheap to compare.
var (
	rankSingleton      Selector = rankSelector{}
	randomSingleton    Selector = randomSelector{}
	flowSpraySingleton Selector = flowSpraySelector{}
	adaptiveSingleton  Selector = adaptiveSelector{}
	pktSpraySingleton  Selector = pktSpraySelector{}
)

// SelectRank returns the paper's rank-based selection (the default policy).
func SelectRank() Selector { return rankSingleton }

// SelectRandom returns the oblivious per-packet random selection.
func SelectRandom() Selector { return randomSingleton }

// SelectFlowSpray returns per-flow random pinning.
func SelectFlowSpray() Selector { return flowSpraySingleton }

// SelectAdaptive returns congestion-aware least-loaded selection.
func SelectAdaptive() Selector { return adaptiveSingleton }

// SelectPktSpray returns per-packet round-robin spraying.
func SelectPktSpray() Selector { return pktSpraySingleton }

// SelectPlan returns a selector that follows plan for the flows it plans and
// the rank selection for every other flow, failing over off dead paths like
// rank. A nil plan behaves as SelectRank.
func SelectPlan(plan *core.PathPlan) Selector { return planSelector{plan} }

// StaticSelect evaluates a selector outside a running simulation — the
// static verifier's quality pass uses it to trace what sources would send.
// The congestion view is empty (every candidate reports an idle fabric), so
// adaptive reduces to its canonical start; the per-flow state word is
// call-local, so stateful selectors report their first-packet choice and no
// state leaks between pairs. mask must be nonzero and rng non-nil for
// selectors that draw.
func StaticSelect(sel Selector, src, dst topology.NodeID, base ib.LID, count, canonical int, mask uint64, rng *rand.Rand) int {
	var state uint32
	full := mask == ^uint64(0)>>uint(64-count)
	off, _ := sel.Select(&SelectContext{
		Src: src, Dst: dst, RNG: rng, Base: base, Count: count,
		Mask: mask, Full: full, Canonical: canonical, state: &state,
	})
	return off
}

// SelectorByName resolves a built-in selector from its CLI name.
func SelectorByName(name string) (Selector, error) {
	switch name {
	case "rank", "":
		return rankSingleton, nil
	case "random":
		return randomSingleton, nil
	case "flowspray":
		return flowSpraySingleton, nil
	case "adaptive":
		return adaptiveSingleton, nil
	case "pktspray":
		return pktSpraySingleton, nil
	}
	return nil, fmt.Errorf("sim: unknown selector %q (have %v)", name, SelectorNames())
}

// SelectorNames lists the built-in selectors, sorted.
func SelectorNames() []string {
	names := []string{"rank", "random", "flowspray", "adaptive", "pktspray"}
	sort.Strings(names)
	return names
}
