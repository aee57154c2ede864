package verify

import (
	"fmt"
	"slices"
	"sync"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// Walk outcomes, per (leaf switch, assigned LID) route.
const (
	walkReached  = iota // delivered to the owning node
	walkDeadLink        // blocked by a recorded dead link (observable drop)
	walkDefect          // error-severity defect, finding already emitted
)

// entryKey dedups per-entry findings: a broken entry at switch S for LID L
// is one finding, not one per source leaf that reaches it.
type entryKey struct {
	sw  int32
	lid int
}

// reachCandidate is one finding recorded during a leaf's walk, before the
// cross-leaf dedup of the canonical merge. hasKey marks per-entry findings
// (deduped globally); aggregate per-(leaf, node) warnings carry no key.
type reachCandidate struct {
	hasKey bool
	key    entryKey
	f      Finding
}

// reachOut is the walk output the canonical merge consumes: candidates in
// emission order, formatted only up to the finding cap. Past the cap a
// candidate can only be suppressed, because a candidate at local index >=
// cap lands at global index >= cap: every earlier local candidate the merge
// drops as a duplicate was kept, under a distinct key, from an earlier leaf.
// over counts the keyless ones; suppressed per-entry candidates keep no
// record here, the merge counts them from the walk's claim sets.
type reachOut struct {
	cands  []reachCandidate
	over   int
	routes int
}

// walker is one worker's walk state, reused route after route: the claim
// set of flagged (switch, LID) entries, the current route's out-channels,
// and the channel-dependency graph of every lane the walks feed. A route
// that hits no defect allocates nothing.
type walker struct {
	f       *fabric
	claimed bitset     // switch*space + LID -> entry already flagged
	hops    []int32    // current route's out-channels (sw*m+port)
	path    []int32    // the switches hops leave from, for the loop check
	graphs  []depGraph // one per lane; a single shared one when VLOf is nil
	out     *reachOut
	ever    bitset // parallel walker: the union of every finished leaf's claims
}

// walker returns f's i-th pooled walker, reset for this run.
func (f *fabric) walker(i int) *walker {
	for len(f.walkers) <= i {
		f.walkers = append(f.walkers, new(walker))
	}
	w := f.walkers[i]
	lanes := 1
	if f.vlOf != nil {
		lanes = f.vls
	}
	w.f, w.out = f, nil
	w.claimed = w.claimed.resize(f.t.Switches() * f.space)
	w.hops = slices.Grow(w.hops[:0], f.maxSwitches)
	w.path = slices.Grow(w.path[:0], f.maxSwitches)
	w.graphs = slices.Grow(w.graphs[:0], lanes)[:lanes]
	for l := range w.graphs {
		w.graphs[l].reset(f)
	}
	return w
}

// full reports whether the finding cap is reached, so the next candidate
// is counted instead of formatted.
func (w *walker) full() bool {
	return w.f.cap > 0 && len(w.out.cands) >= w.f.cap
}

// claim reports whether the caller should format a finding for (sw, lid),
// marking the entry flagged. It returns false when a route already flagged
// the entry, and when the cap is full — then the entry is suppressed, and
// the merge counts it from the claim set. Formatting the message and
// witness strings is the dominant cost of a walk over a heavily degraded
// fabric, so nothing is built that could not reach the report.
func (w *walker) claim(sw topology.SwitchID, lid int) bool {
	i := int(sw)*w.f.space + lid
	if w.claimed.has(i) {
		return false
	}
	w.claimed.set(i)
	return !w.full()
}

// entry records a claimed per-entry finding.
func (w *walker) entry(sw topology.SwitchID, lid int, f Finding) {
	w.out.cands = append(w.out.cands, reachCandidate{hasKey: true, key: entryKey{int32(sw), lid}, f: f})
}

// endLeaf folds the leaf's claims into ever and empties the claim set,
// readying the walker for the next leaf's independent dedup.
func (w *walker) endLeaf() {
	w.ever.or(w.claimed)
	clear(w.claimed)
}

// witness renders the current route's hops.
func (w *walker) witness(from int) []string {
	out := make([]string, 0, len(w.hops)-from)
	for _, c := range w.hops[from:] {
		out = append(out, w.f.chanLabel(int(c)))
	}
	return out
}

// checkReachability walks every (leaf switch, assigned LID) route through
// the live tables — every packet enters the fabric at a leaf, so these walks
// cover every forwardable (source, DLID) pair. Loops, dead ends,
// misdeliveries and fall-offs are errors with the walked path as witness;
// entries pointing at recorded dead links are warnings (the drop is the
// documented fate of an unrepaireable entry); a destination whose every LID
// is dead from some leaf gets one aggregated unreachability warning. The
// same walks build the channel-dependency graphs checkDeadlock searches,
// which it returns, one per lane.
//
// Leaves are independent sources, so with par > 1 their walks run on a
// worker pool; each leaf records into its own slot and a serial merge in
// ascending-leaf order applies the global first-leaf-wins dedup and the
// finding cap, so the report is byte-identical to the serial walk no matter
// the worker count or scheduling. The dependency graphs are edge sets, so
// the workers' graphs merge by union.
func (f *fabric) checkReachability(rep *Report, par int) []depGraph {
	leaves := f.leaves
	if par > len(leaves) {
		par = len(leaves)
	}
	if par <= 1 {
		// Serial: one walker and one output for every leaf, so the
		// global first-encounter dedup gates finding construction itself
		// — a duplicate entry never builds its witness strings at all.
		// The claim set is never emptied, so it holds every claim of the
		// walk.
		w := f.walker(0)
		outs := f.resizeOuts(1)
		w.out = &outs[0]
		for _, leaf := range leaves {
			w.walkLeaf(leaf)
		}
		f.mergeReach(rep, outs, w.claimed)
		return w.graphs
	}
	outs := f.resizeOuts(len(leaves))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		w := f.walker(i)
		w.ever = w.ever.resize(f.t.Switches() * f.space)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				w.out = &outs[j]
				w.walkLeaf(leaves[j])
				w.endLeaf()
			}
		}()
	}
	for i := range leaves {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	w0 := f.walkers[0]
	for _, w := range f.walkers[1:par] {
		w0.ever.or(w.ever)
		for l := range w0.graphs {
			w0.graphs[l].union(&w.graphs[l])
		}
	}
	f.mergeReach(rep, outs, w0.ever)
	return w0.graphs
}

// resizeOuts returns f's pooled walk outputs resized to n empty slots, each
// keeping its buffers.
func (f *fabric) resizeOuts(n int) []reachOut {
	f.outs = slices.Grow(f.outs[:0], n)[:n]
	for i := range f.outs {
		o := &f.outs[i]
		*o = reachOut{cands: o.cands[:0]}
	}
	return f.outs
}

// mergeReach is the canonical merge: outputs in ascending-leaf order,
// per-leaf emission order, global first-leaf-wins dedup (seen), the finding
// cap. ever is every entry the walk claimed; those no leaf formatted were
// claimed past a cap, and each distinct one counts as suppressed once. An
// entry past one leaf's cap that a later leaf formatted is counted once, by
// add, because the earlier leaf filled the cap.
func (f *fabric) mergeReach(rep *Report, outs []reachOut, ever bitset) {
	f.seen = f.seen.resize(f.t.Switches() * f.space)
	first := func(k entryKey) bool {
		i := int(k.sw)*f.space + k.lid
		if f.seen.has(i) {
			return false
		}
		f.seen.set(i)
		return true
	}
	for i := range outs {
		out := &outs[i]
		rep.Stats.RoutesChecked += out.routes
		for _, c := range out.cands {
			if !c.hasKey || first(c.key) {
				rep.add(f.cap, c.f)
			}
		}
		rep.Stats.Suppressed += out.over
	}
	rep.Stats.Suppressed += ever.count() - f.seen.count()
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
			w.out.routes++
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
				w.out.over++
				continue
			}
			w.out.cands = append(w.out.cands, reachCandidate{f: Finding{
				Analyzer: "reachability",
				Severity: Warning,
				Location: t.SwitchLabel(leaf),
				Message: fmt.Sprintf("destination %s unreachable: all %d of its LIDs hit dead links from this leaf",
					t.NodeLabel(topology.NodeID(p)), routes),
				Witness: nil,
			}})
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
					w.entry(sw, lid, Finding{
						Analyzer: "reachability",
						Severity: Error,
						Location: t.SwitchLabel(sw),
						Message:  fmt.Sprintf("forwarding loop for DLID %d (%d switches)", lid, len(cyc)),
						Witness:  cyc,
					})
				}
				return walkDefect
			}
		}
		if len(w.hops) >= f.maxSwitches {
			if w.claim(sw, lid) {
				w.entry(sw, lid, Finding{
					Analyzer: "reachability",
					Severity: Error,
					Location: t.SwitchLabel(sw),
					Message:  fmt.Sprintf("route for DLID %d exceeds %d switches without delivery", lid, f.maxSwitches),
					Witness:  w.witness(0),
				})
			}
			return walkDefect
		}
		phys := f.in.LFTs[sw].Port(ib.LID(lid))
		if phys == ib.PortNone {
			if w.claim(sw, lid) {
				w.entry(sw, lid, Finding{
					Analyzer: "reachability",
					Severity: Error,
					Location: t.SwitchLabel(sw),
					Message:  fmt.Sprintf("dead end: no forwarding entry for assigned DLID %d", lid),
					Witness:  w.witness(0),
				})
			}
			return walkDefect
		}
		if phys == 0 || int(phys) > f.m {
			if w.claim(sw, lid) {
				w.entry(sw, lid, Finding{
					Analyzer: "reachability",
					Severity: Error,
					Location: t.SwitchLabel(sw),
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
				w.entry(sw, lid, Finding{
					Analyzer: "reachability",
					Severity: Warning,
					Location: f.linkLabel(sw, ab),
					Message:  fmt.Sprintf("entry for DLID %d points at a down link (packets drop here)", lid),
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
				w.entry(sw, lid, Finding{
					Analyzer: "reachability",
					Severity: Error,
					Location: f.linkLabel(sw, ab),
					Message:  fmt.Sprintf("route for DLID %d falls off the fabric (unwired port)", lid),
					Witness:  w.witness(0),
				})
			}
			return walkDefect
		case topology.KindNode:
			if int32(ref.Node) != dst {
				if w.claim(sw, lid) {
					w.entry(sw, lid, Finding{
						Analyzer: "reachability",
						Severity: Error,
						Location: f.linkLabel(sw, ab),
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
