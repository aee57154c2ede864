package verify

import (
	"slices"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// Walk outcomes, per (leaf switch, assigned LID) route.
const (
	walkReached  = iota // delivered to the owning node
	walkDeadLink        // blocked by a recorded dead link (observable drop)
	walkDefect          // error-severity defect, finding already emitted
)

// walker is the reachability walk's state, reused route after route and
// run after run: the claim set of flagged (switch, LID) entries, the
// current route's out-channels, the channel-dependency graph of every lane
// the walks feed, and the report whose stats the walk counts into. Once
// the pooled scratch has grown, a walk allocates nothing, defects
// included. A walker with no report (Epochs') only follows routes: it
// claims no entry and records no finding, and its graphs count each
// dependency's routes.
type walker struct {
	f       *fabric
	rep     *Report
	claimed bitset     // switch*space + LID -> entry already flagged
	hops    []int32    // current route's out-channels (sw*m+port)
	path    []int32    // the switches hops leave from, for the loop check
	graphs  []depGraph // one per lane; a single shared one when VLOf is nil
}

// walker returns f's pooled walker, reset for a run reporting to rep.
func (f *fabric) walker(rep *Report) *walker {
	w := &f.w
	lanes := 1
	if f.vlOf != nil {
		lanes = f.vls
	}
	w.f, w.rep = f, rep
	if rep != nil {
		w.claimed = w.claimed.resize(f.t.Switches() * f.space)
	}
	w.hops = slices.Grow(w.hops[:0], f.maxSwitches)
	w.path = slices.Grow(w.path[:0], f.maxSwitches)
	w.graphs = slices.Grow(w.graphs[:0], lanes)[:lanes]
	for l := range w.graphs {
		w.graphs[l].reset(f, rep == nil)
	}
	return w
}

// flag records finding r for the entry (sw, lid), with the current
// route's hops from `from` on as its witness, unless a route already
// flagged the entry: a broken entry is one finding, however many leaves'
// routes reach it.
func (w *walker) flag(sw topology.SwitchID, lid int, r record, from int) {
	if w.rep == nil {
		return
	}
	i := int(sw)*w.f.space + lid
	if w.claimed.has(i) {
		return
	}
	w.claimed.set(i)
	r.lid = int32(lid)
	w.f.add(w.rep, r, w.hops[from:])
}

// checkReachability walks every (leaf switch, assigned LID) route through
// the live tables — every packet enters the fabric at a leaf, so these walks
// cover every forwardable (source, DLID) pair. Loops, dead ends,
// misdeliveries and fall-offs are errors with the walked path as witness;
// entries pointing at recorded dead links are warnings (the drop is the
// documented fate of an unrepaireable entry); a destination whose every LID
// is dead from some leaf gets one aggregated unreachability warning. A
// broken entry is one finding, however many leaves' routes reach it: the
// first route to hit it claims it. The same walks build the
// channel-dependency graphs checkDeadlock searches, which it returns, one
// per lane.
func (f *fabric) checkReachability(rep *Report) []depGraph {
	w := f.walker(rep)
	for _, leaf := range f.leaves {
		w.walkLeaf(leaf)
	}
	return w.graphs
}

// walkLeaf walks every (node, assigned LID offset) route out of one leaf.
func (w *walker) walkLeaf(leaf topology.SwitchID) {
	f := w.f
	t := f.t
	for p := 0; p < t.Nodes(); p++ {
		r := f.in.Endports[p]
		reached, deadBlocked, routes := 0, 0, 0
		for off := 0; off < r.Count(); off++ {
			lid := int(r.Base) + off
			if lid <= 0 || lid >= f.space || f.owner[lid] != int32(p) {
				continue // addressing already flagged the inconsistency
			}
			routes++
			w.rep.Stats.RoutesChecked++
			switch w.walkRoute(leaf, lid, int32(p)) {
			case walkReached:
				reached++
			case walkDeadLink:
				deadBlocked++
			}
		}
		// Aggregate unreachability: only when every failure is
		// fault-explained (defects already carry their own errors).
		if routes > 0 && reached == 0 && deadBlocked == routes {
			f.add(w.rep, record{kind: kindUnreachable, sw: leaf, node: topology.NodeID(p), n: routes}, nil)
		}
	}
}

// walkRoute follows one (leaf, LID) route hop by hop and reports its
// outcome, recording findings for defects along the way. Every live hop
// also feeds the dependency graph of the LID's lane: a packet holding one
// out-channel while requesting the next forms an edge, a packet heading
// into a dead link drops there holding nothing further (no edge), and a
// forwarding loop closes its cycle of edges — exactly the hops a packet
// following the tables for maxSwitches switches would traverse.
func (w *walker) walkRoute(leaf topology.SwitchID, lid int, dst int32) int {
	f := w.f
	m := int32(f.m)
	g := w.laneGraph(lid)
	w.hops, w.path = w.hops[:0], w.path[:0]
	prev := int32(-1)
	sw := leaf
	for {
		for i, s := range w.path {
			if s == int32(sw) {
				// The packet re-enters sw and leaves on the same channel
				// again — unless it would by then have crossed maxSwitches
				// switches.
				if g != nil && len(w.hops) < f.maxSwitches {
					c := w.hops[i]
					g.dep(prev, c, int(c-s*m))
				}
				w.flag(sw, lid, record{kind: kindLoop, sw: sw}, i)
				return walkDefect
			}
		}
		if len(w.hops) >= f.maxSwitches {
			w.flag(sw, lid, record{kind: kindOverlong, sw: sw, n: f.maxSwitches}, 0)
			return walkDefect
		}
		phys := f.in.LFTs[sw].Port(ib.LID(lid))
		if phys == ib.PortNone {
			w.flag(sw, lid, record{kind: kindDeadEnd, sw: sw}, 0)
			return walkDefect
		}
		if phys == 0 || int(phys) > f.m {
			w.flag(sw, lid, record{kind: kindBadPort, sw: sw, n: int(phys)}, 0)
			return walkDefect
		}
		ab := int(phys) - 1
		cur := int32(sw)*m + int32(ab)
		w.hops = append(w.hops, cur)
		w.path = append(w.path, int32(sw))
		if f.dead.Dead(sw, ab) {
			w.flag(sw, lid, record{kind: kindDownLink, ch: cur}, 0)
			return walkDeadLink
		}
		if g != nil {
			g.dep(prev, cur, ab)
		}
		prev = cur
		ref := &f.nbr[cur]
		switch ref.Kind {
		case topology.KindNone:
			w.flag(sw, lid, record{kind: kindFallOff, ch: cur}, 0)
			return walkDefect
		case topology.KindNode:
			if int32(ref.Node) != dst {
				w.flag(sw, lid, record{kind: kindMisdelivery, ch: cur, node: topology.NodeID(dst), other: ref.Node}, 0)
				return walkDefect
			}
			return walkReached
		}
		sw = ref.Switch
	}
}

// laneGraph returns the dependency graph a route to lid feeds: the shared
// graph when every lane carries every route, else the graph of the lane
// VLOf maps lid to (nil for a lane outside [0, VLs), which no graph covers).
func (w *walker) laneGraph(lid int) *depGraph {
	if w.f.vlOf == nil {
		return &w.graphs[0]
	}
	vl := w.f.vlOf(ib.LID(lid), w.f.vls)
	if vl < 0 || vl >= len(w.graphs) {
		return nil
	}
	return &w.graphs[vl]
}
