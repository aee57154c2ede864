package core

import (
	"fmt"
	"strings"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// Hop records one switch traversal of a traced path: the switch, the abstract
// port the packet entered on, and the abstract port it left through.
type Hop struct {
	Switch  topology.SwitchID
	InPort  int
	OutPort int
}

// Path is a fully resolved route of one DLID from a source node to the node
// owning the DLID.
type Path struct {
	Src, Dst topology.NodeID
	DLID     ib.LID
	Hops     []Hop
}

// Len returns the number of switches traversed.
func (p Path) Len() int { return len(p.Hops) }

// UpHops returns how many hops were ascending (the packet left through an
// up-port). A valid fat-tree route is a (possibly empty) ascending phase
// followed by a descending phase.
func (p Path) UpHops(t *topology.Tree) int {
	up := 0
	for _, h := range p.Hops {
		if h.OutPort >= t.DownPorts(h.Switch) {
			up++
		}
	}
	return up
}

// String renders the path in the paper's style, e.g.
// "P(000) -> SW<00,2>:2 -> SW<00,1>:2 -> SW<00,0>:1 -> SW<10,1>:0 -> SW<10,2>:0 -> P(100)".
func (p Path) String() string { return p.Render(nil) }

// Render renders the path using tree labels when t is non-nil.
func (p Path) Render(t *topology.Tree) string {
	var b strings.Builder
	if t != nil {
		b.WriteString(t.NodeLabel(p.Src))
	} else {
		fmt.Fprintf(&b, "node %d", p.Src)
	}
	for _, h := range p.Hops {
		if t != nil {
			fmt.Fprintf(&b, " -> %s:%d", t.SwitchLabel(h.Switch), h.OutPort)
		} else {
			fmt.Fprintf(&b, " -> sw%d:%d", h.Switch, h.OutPort)
		}
	}
	if t != nil {
		fmt.Fprintf(&b, " -> %s", t.NodeLabel(p.Dst))
	} else {
		fmt.Fprintf(&b, " -> node %d", p.Dst)
	}
	return b.String()
}

// TraceLID walks the fabric from src following the scheme's forwarding
// decisions for the given DLID, exactly as the programmed LFTs would forward
// a packet. It fails if the walk leaves the fabric, loops, violates the
// ascend-then-descend (up*/down*) discipline that keeps fat-tree routing
// deadlock free, or terminates at a node that does not own the DLID.
func TraceLID(t *topology.Tree, s Scheme, src topology.NodeID, dlid ib.LID) (Path, error) {
	// The longest legal route crosses 2n-1 switches; only a looping walk,
	// which fails anyway, grows past one allocation.
	p := Path{Src: src, DLID: dlid, Hops: make([]Hop, 0, 2*t.N()-1)}
	end := walkLID(t, s, src, dlid, nil, &p.Hops)
	switch end.stop {
	case walkDelivered:
		p.Dst = end.dst
		return p, nil
	case walkLoop:
		return p, fmt.Errorf("core: route for DLID %d from node %d exceeds %d hops (loop?): %s",
			dlid, src, 2*t.N()+1, p.Render(t))
	case walkNoRoute:
		return p, fmt.Errorf("core: switch %s has no route for DLID %d", t.SwitchLabel(end.sw), dlid)
	case walkBadPort:
		return p, fmt.Errorf("core: switch %s routed DLID %d to invalid port %d", t.SwitchLabel(end.sw), dlid, end.out)
	case walkUpAfterDown:
		return p, fmt.Errorf("core: route for DLID %d turns upward after descending at %s (up*/down* violated)",
			dlid, t.SwitchLabel(end.sw))
	default: // walkOffFabric; walkBlocked needs a fault set
		return p, fmt.Errorf("core: route for DLID %d fell off the fabric at %s port %d",
			dlid, t.SwitchLabel(end.sw), end.out)
	}
}

// walkStop says why a walk ended: delivery to a node, or the defect or
// failed link that stopped it.
type walkStop uint8

const (
	walkDelivered walkStop = iota
	walkLoop
	walkNoRoute
	walkBadPort
	walkUpAfterDown
	walkOffFabric
	walkBlocked
)

// walkEnd is where a walk ended: the node it delivered to, or the switch
// (and, past the port checks, the out port) at which it stopped.
type walkEnd struct {
	stop walkStop
	dst  topology.NodeID
	sw   topology.SwitchID
	out  int
}

// walkLID is the one forwarding walk behind TraceLID, TraceSubnet (over
// the programmed tables) and the path-free selection checks, so the
// up*/down* and port rules live here only. It follows the scheme's
// decisions for dlid from src's leaf, appending each hop to hops when hops
// is non-nil. With a non-empty fault set it stops at the first hop that
// enters or leaves through a failed link (walkBlocked), so a check that
// wants only a verdict allocates nothing.
func walkLID(t *topology.Tree, s Scheme, src topology.NodeID, dlid ib.LID, faults *FaultSet, hops *[]Hop) walkEnd {
	sw, inPort := t.NodeAttachment(src)
	descending := false
	maxHops := 2*t.N() + 1
	for hop := 0; ; hop++ {
		if hop > maxHops {
			return walkEnd{stop: walkLoop, sw: sw}
		}
		out, ok := s.OutPortAbstract(t, sw, dlid)
		if !ok {
			return walkEnd{stop: walkNoRoute, sw: sw}
		}
		if out < 0 || out >= t.M() {
			return walkEnd{stop: walkBadPort, sw: sw, out: out}
		}
		down := out < t.DownPorts(sw)
		if down {
			descending = true
		} else if descending {
			return walkEnd{stop: walkUpAfterDown, sw: sw, out: out}
		}
		if faults.Dead(sw, out) || faults.Dead(sw, inPort) {
			return walkEnd{stop: walkBlocked, sw: sw, out: out}
		}
		if hops != nil {
			*hops = append(*hops, Hop{Switch: sw, InPort: inPort, OutPort: out})
		}
		ref := t.SwitchNeighbor(sw, out)
		switch ref.Kind {
		case topology.KindNode:
			return walkEnd{stop: walkDelivered, dst: ref.Node}
		case topology.KindSwitch:
			sw, inPort = ref.Switch, ref.Port
		default:
			return walkEnd{stop: walkOffFabric, sw: sw, out: out}
		}
	}
}

// Trace resolves the scheme's selected path from src to dst: it performs path
// selection (DLID) and then walks the forwarding decisions, verifying the
// packet is delivered to dst.
func Trace(t *topology.Tree, s Scheme, src, dst topology.NodeID) (Path, error) {
	dlid := s.DLID(t, src, dst)
	p, err := TraceLID(t, s, src, dlid)
	if err != nil {
		return p, err
	}
	if p.Dst != dst {
		return p, fmt.Errorf("core: scheme %s delivered node %d's packet for node %d (DLID %d) to node %d: %s",
			s.Name(), src, dst, dlid, p.Dst, p.Render(t))
	}
	return p, nil
}

// AllPaths enumerates every distinct path the scheme can name from src to the
// node owning baseLID..baseLID+2^LMC-1 — i.e. the routes of all of dst's
// LIDs. Offsets whose routes coincide (MLID offsets differing only in digits
// below the common-prefix level) are deduplicated.
func AllPaths(t *topology.Tree, s Scheme, src, dst topology.NodeID) ([]Path, error) {
	base := s.BaseLID(t, dst)
	count := 1 << s.LMC(t)
	var out []Path
	seen := make(map[string]bool)
	for off := 0; off < count; off++ {
		p, err := TraceLID(t, s, src, base+ib.LID(off))
		if err != nil {
			return nil, err
		}
		if p.Dst != dst {
			return nil, fmt.Errorf("core: LID %d of node %d delivered to node %d", base+ib.LID(off), dst, p.Dst)
		}
		key := p.Render(nil)
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out, nil
}
