package verify

import (
	"fmt"
	"slices"
	"strconv"

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
// the walks feed, and the report whose stats the walk counts into. A route
// that hits no defect allocates nothing. A walker with no report (Epochs')
// only follows routes: it claims no entry and builds no finding, and its
// graphs count each dependency's routes.
type walker struct {
	f       *fabric
	rep     *Report
	found   int        // reachability findings collected
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
	w.f, w.rep, w.found = f, rep, 0
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

// full reports whether the finding cap is reached, so the next finding is
// counted as suppressed instead of formatted.
func (w *walker) full() bool {
	return w.f.cap > 0 && w.found >= w.f.cap
}

// claim reports whether the caller should format a finding for (sw, lid),
// marking the entry flagged. It returns false when a route already flagged
// the entry, and when the cap is full — then the entry counts as
// suppressed, once. Formatting the message and witness strings is the
// dominant cost of a walk over a heavily degraded fabric, so nothing is
// built that could not reach the report.
func (w *walker) claim(sw topology.SwitchID, lid int) bool {
	if w.rep == nil {
		return false
	}
	i := int(sw)*w.f.space + lid
	if w.claimed.has(i) {
		return false
	}
	w.claimed.set(i)
	if w.full() {
		w.rep.Stats.Suppressed++
		return false
	}
	return true
}

// add collects a finding the cap has room for.
func (w *walker) add(f Finding) {
	w.f.findings = append(w.f.findings, f.valid())
	w.found++
}

// witness renders the current route's hops into the fabric's witness
// scratch; keep copies it out. keep leaves an empty witness as it is, so
// that one must not point into the scratch.
func (w *walker) witness(from int) []string {
	if from == len(w.hops) {
		return []string{}
	}
	start := len(w.f.wit)
	for _, c := range w.hops[from:] {
		w.f.wit = append(w.f.wit, w.f.chanLabel(int(c)))
	}
	return w.f.wit[start:len(w.f.wit):len(w.f.wit)]
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
			if w.full() {
				w.rep.Stats.Suppressed++
				continue
			}
			var buf [96]byte
			b := append(buf[:0], "destination "...)
			b = append(b, t.NodeLabel(topology.NodeID(p))...)
			b = append(b, " unreachable: all "...)
			b = strconv.AppendInt(b, int64(routes), 10)
			b = append(b, " of its LIDs hit dead links from this leaf"...)
			w.add(Finding{
				Analyzer: "reachability",
				Severity: Warning,
				Location: f.switchLabel(leaf),
				Message:  string(b),
			})
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
	t := f.t
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
				if w.claim(sw, lid) {
					cyc := w.witness(i)
					w.add(Finding{
						Analyzer: "reachability",
						Severity: Error,
						Location: f.switchLabel(sw),
						Message:  fmt.Sprintf("forwarding loop for DLID %d (%d switches)", lid, len(cyc)),
						Witness:  cyc,
					})
				}
				return walkDefect
			}
		}
		if len(w.hops) >= f.maxSwitches {
			if w.claim(sw, lid) {
				w.add(Finding{
					Analyzer: "reachability",
					Severity: Error,
					Location: f.switchLabel(sw),
					Message:  fmt.Sprintf("route for DLID %d exceeds %d switches without delivery", lid, f.maxSwitches),
					Witness:  w.witness(0),
				})
			}
			return walkDefect
		}
		phys := f.in.LFTs[sw].Port(ib.LID(lid))
		if phys == ib.PortNone {
			if w.claim(sw, lid) {
				w.add(Finding{
					Analyzer: "reachability",
					Severity: Error,
					Location: f.switchLabel(sw),
					Message:  fmt.Sprintf("dead end: no forwarding entry for assigned DLID %d", lid),
					Witness:  w.witness(0),
				})
			}
			return walkDefect
		}
		if phys == 0 || int(phys) > f.m {
			if w.claim(sw, lid) {
				w.add(Finding{
					Analyzer: "reachability",
					Severity: Error,
					Location: f.switchLabel(sw),
					Message:  fmt.Sprintf("DLID %d routed to invalid physical port %d", lid, phys),
					Witness:  w.witness(0),
				})
			}
			return walkDefect
		}
		ab := int(phys) - 1
		cur := int32(sw)*m + int32(ab)
		w.hops = append(w.hops, cur)
		w.path = append(w.path, int32(sw))
		if f.dead[cur] {
			if w.claim(sw, lid) {
				// A degraded epoch reports up to the cap of these: the
				// message costs its one string, no boxed arguments.
				var buf [80]byte
				b := append(buf[:0], "entry for DLID "...)
				b = strconv.AppendInt(b, int64(lid), 10)
				b = append(b, " points at a down link (packets drop here)"...)
				w.add(Finding{
					Analyzer: "reachability",
					Severity: Warning,
					Location: f.chanLabel(int(cur)),
					Message:  string(b),
					Witness:  w.witness(0),
				})
			}
			return walkDeadLink
		}
		if g != nil {
			g.dep(prev, cur, ab)
		}
		prev = cur
		ref := &f.nbr[cur]
		switch ref.Kind {
		case topology.KindNone:
			if w.claim(sw, lid) {
				w.add(Finding{
					Analyzer: "reachability",
					Severity: Error,
					Location: f.chanLabel(int(cur)),
					Message:  fmt.Sprintf("route for DLID %d falls off the fabric (unwired port)", lid),
					Witness:  w.witness(0),
				})
			}
			return walkDefect
		case topology.KindNode:
			if int32(ref.Node) != dst {
				if w.claim(sw, lid) {
					w.add(Finding{
						Analyzer: "reachability",
						Severity: Error,
						Location: f.chanLabel(int(cur)),
						Message: fmt.Sprintf("misdelivery: DLID %d owned by %s delivered to %s",
							lid, t.NodeLabel(topology.NodeID(dst)), t.NodeLabel(ref.Node)),
						Witness: w.witness(0),
					})
				}
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
