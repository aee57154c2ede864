// Package core implements the paper's primary contribution: the Multiple LID
// (MLID) routing scheme for m-port n-tree InfiniBand networks, together with
// the Single LID (SLID) baseline scheme it is evaluated against.
//
// A routing scheme here is the triple the paper defines:
//
//  1. a processing-node addressing scheme — how many LIDs each endport owns
//     (the LMC value) and where its base LID sits;
//  2. a path selection scheme — which of the destination's LIDs a source
//     writes into a packet's DLID field, thereby pinning the packet to one
//     of the fabric's shortest paths; and
//  3. a forwarding table assignment scheme — a closed-form rule giving, for
//     every switch and every DLID, the output port, from which the subnet
//     manager fills every linear forwarding table.
//
// Both schemes implement ib.RoutingEngine and are consumed by the subnet
// manager in package ib and by the simulator in package sim. The package
// also provides path tracing, static link-load analysis, and LMC-multipath
// fault avoidance built on top of the schemes.
package core

import (
	"fmt"
	"math/bits"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// Scheme is the routing-scheme abstraction used across the repository; it is
// exactly ib.RoutingEngine, re-exported under the paper's vocabulary.
type Scheme = ib.RoutingEngine

// log2 of a power of two.
func log2(v int) int { return bits.Len(uint(v)) - 1 }

// MLID is the paper's Multiple LID routing scheme.
//
// Addressing: every endport is assigned LMC = (n-1)*log2(m/2), so it owns
// 2^LMC = (m/2)^(n-1) consecutive LIDs — one per distinct ascending path from
// any source (equivalently, one per least common ancestor the fabric offers a
// pair of nodes in disjoint level-1 subtrees). BaseLID(P) = PID(P)*2^LMC + 1.
//
// Path selection: a source S sending to destination D with greatest common
// prefix length alpha uses DLID = BaseLID(D) + rank(S), where rank(S) is S's
// rank within its own gcpg at level alpha+1. Distinct sources in a group
// therefore address the same destination through distinct LIDs, and their
// packets climb to distinct least common ancestors over link-disjoint
// ascending paths — this is what removes the Figure 9(a) hot-port congestion
// of single-LID routing.
//
// Forwarding: for a switch SW<w, l> and DLID lid, let pid = (lid-1) >> LMC
// and j = (lid-1) mod 2^LMC. With p the digits of pid:
//
//	Case 1 (down): if w0..w[l-1] == p0..p[l-1], output abstract port p_l.
//	Case 2 (up):   output abstract port m/2 + floor(j / (m/2)^(n-1-l)) mod m/2.
//
// Case 2 reads base-(m/2) digit l-1 of the path index j, so the ascending hop
// at level l always steers toward the unique least common ancestor that j
// names, no matter which leaf injected the packet; per-switch deterministic
// tables thus realize a globally consistent multipath.
type MLID struct{}

// NewMLID returns the paper's MLID scheme.
func NewMLID() MLID { return MLID{} }

// Name implements Scheme.
func (MLID) Name() string { return "MLID" }

// LMC implements Scheme: (n-1) * log2(m/2).
func (MLID) LMC(t *topology.Tree) uint8 {
	return uint8((t.N() - 1) * log2(t.H()))
}

// PathsPerPair returns 2^LMC, the number of LIDs per endport and the maximum
// number of selectable paths between any pair of nodes.
func (s MLID) PathsPerPair(t *topology.Tree) int { return 1 << s.LMC(t) }

// BaseLID implements Scheme: PID * 2^LMC + 1.
func (s MLID) BaseLID(t *topology.Tree, n topology.NodeID) ib.LID {
	return ib.LID(int64(n)<<s.LMC(t) + 1)
}

// LIDSpace implements Scheme.
func (s MLID) LIDSpace(t *topology.Tree) int {
	return t.Nodes()<<s.LMC(t) + 1
}

// DLID implements Scheme's path selection. For src == dst it returns the
// destination's base LID.
func (s MLID) DLID(t *topology.Tree, src, dst topology.NodeID) ib.LID {
	base := s.BaseLID(t, dst)
	alpha := t.GCPLen(src, dst)
	if alpha >= t.N() {
		return base
	}
	return base + ib.LID(t.Rank(src, alpha+1))
}

// Decompose splits a DLID into the destination node and the path index j.
func (s MLID) Decompose(t *topology.Tree, lid ib.LID) (dst topology.NodeID, pathIndex int64, err error) {
	if lid == 0 || int(lid) >= s.LIDSpace(t) {
		return 0, 0, fmt.Errorf("core: MLID DLID %d outside assigned space [1,%d)", lid, s.LIDSpace(t))
	}
	lmc := s.LMC(t)
	v := int64(lid) - 1
	return topology.NodeID(v >> lmc), v & (1<<lmc - 1), nil
}

// OutPortAbstract implements Scheme's forwarding table assignment
// (Equations (1) and (2) of the paper), returning the abstract output port.
func (s MLID) OutPortAbstract(t *topology.Tree, sw topology.SwitchID, lid ib.LID) (int, bool) {
	dst, j, err := s.Decompose(t, lid)
	if err != nil || !t.ValidNode(dst) {
		return 0, false
	}
	if down, ok := t.DownPortToward(sw, dst); ok {
		return down, true // Equation (1): k = p_l
	}
	// Equation (2): ascend toward the LCA selected by digit l-1 of j.
	return mlidUpPort(t, t.SwitchLevel(sw), j), true
}

// mlidUpPort is Equation (2) at a level-l switch: abstract port
// m/2 + digit l-1 of the path index j, whose weight is (m/2)^(n-1-l).
func mlidUpPort(t *topology.Tree, level int, j int64) int {
	return t.H() + int(j>>((t.N()-1-level)*log2(t.H())))&(t.H()-1)
}

// FillLFT implements Scheme: OutPortAbstract over the switch's whole row,
// a block of 2^LMC LIDs per node. Case 2 depends only on j and the level,
// so one block's up ports are computed once and tiled over the row, and
// every block of a node below the switch is then overwritten with its
// Case 1 down port.
func (s MLID) FillLFT(t *topology.Tree, sw topology.SwitchID, ports []uint8) {
	block := 1 << s.LMC(t)
	row := ports[1:]
	if level := t.SwitchLevel(sw); level > 0 {
		for j := range block {
			row[j] = uint8(mlidUpPort(t, level, int64(j)) + 1)
		}
		tile(row, block)
	}
	fillDown(t, sw, row, block)
}

// tile repeats row[:period] over the whole of row.
func tile(row []uint8, period int) {
	for n := period; n < len(row); n *= 2 {
		copy(row[n:], row[:n])
	}
}

// fillDown writes Case 1 into a switch's row (LID 1 onward): every LID of
// a node in the switch's downward subtree, block LIDs per node, gets the
// physical port of the node's abstract down port.
func fillDown(t *topology.Tree, sw topology.SwitchID, row []uint8, block int) {
	for dst := range t.Nodes() {
		if down, ok := t.DownPortToward(sw, topology.NodeID(dst)); ok {
			blk := row[dst*block : (dst+1)*block]
			for i := range blk {
				blk[i] = uint8(down + 1)
			}
		}
	}
}

// SLID is the paper's baseline: one LID per endport.
//
// Addressing: LMC = 0 and LID(P) = PID(P) + 1. (The paper writes LID = PID;
// the +1 keeps LID 0 reserved as the IBA requires and shifts every node
// uniformly, which changes nothing about the scheme's behaviour.)
//
// Forwarding follows the paper's stated design goal of "evenly distributing
// possible traffic over available paths": descending uses Case 1 above, and
// the ascending hop at level l steers by the destination's own digit p_l, so
// different destinations spread over different roots — but every source uses
// the same path toward a given destination, which is precisely what congests
// under concentrated traffic (the paper's Figures 7 and 9(a)).
type SLID struct{}

// NewSLID returns the paper's single-LID baseline scheme.
func NewSLID() SLID { return SLID{} }

// Name implements Scheme.
func (SLID) Name() string { return "SLID" }

// LMC implements Scheme.
func (SLID) LMC(*topology.Tree) uint8 { return 0 }

// BaseLID implements Scheme: PID + 1.
func (SLID) BaseLID(_ *topology.Tree, n topology.NodeID) ib.LID {
	return ib.LID(int64(n) + 1)
}

// LIDSpace implements Scheme.
func (SLID) LIDSpace(t *topology.Tree) int { return t.Nodes() + 1 }

// DLID implements Scheme: the destination's sole LID.
func (s SLID) DLID(t *topology.Tree, _, dst topology.NodeID) ib.LID {
	return s.BaseLID(t, dst)
}

// OutPortAbstract implements Scheme.
func (s SLID) OutPortAbstract(t *topology.Tree, sw topology.SwitchID, lid ib.LID) (int, bool) {
	if lid == 0 || int(lid) >= s.LIDSpace(t) {
		return 0, false
	}
	dst := topology.NodeID(int64(lid) - 1)
	if down, ok := t.DownPortToward(sw, dst); ok {
		return down, true
	}
	// Ascend by the destination's digit at this level: destinations spread
	// evenly over the (m/2) parents, but the choice is source-independent.
	return t.H() + t.NodeDigit(dst, t.SwitchLevel(sw))%t.H(), true
}

// FillLFT implements Scheme: OutPortAbstract over the switch's whole row,
// one LID per node. The up port reads the destination's digit l, so it
// repeats every (m/2)^(n-l) nodes: that one period is computed and tiled
// over the row before the Case 1 down ports overwrite the switch's subtree.
func (s SLID) FillLFT(t *topology.Tree, sw topology.SwitchID, ports []uint8) {
	row := ports[1:]
	if level := t.SwitchLevel(sw); level > 0 {
		period := t.GCPGSize(level)
		for dst := range period {
			row[dst] = uint8(t.H() + t.NodeDigit(topology.NodeID(dst), level) + 1)
		}
		tile(row, period)
	}
	fillDown(t, sw, row, 1)
}

// ByName returns the scheme with the given (case-sensitive) name.
func ByName(name string) (Scheme, error) {
	switch name {
	case "MLID", "mlid":
		return NewMLID(), nil
	case "SLID", "slid":
		return NewSLID(), nil
	}
	return nil, fmt.Errorf("core: unknown routing scheme %q (want MLID or SLID)", name)
}

// Schemes returns the two schemes the paper evaluates, MLID first.
func Schemes() []Scheme { return []Scheme{NewMLID(), NewSLID()} }

var (
	_ Scheme = MLID{}
	_ Scheme = SLID{}
)
