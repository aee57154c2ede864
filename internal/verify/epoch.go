package verify

import (
	"mlid/internal/arena"
	"mlid/internal/ib"
	"mlid/internal/topology"
)

// Epochs re-verifies one fabric epoch after epoch, walking only the routes
// an epoch can have changed. Between epochs it holds each (leaf, assigned
// LID) route's outcome — reached, blocked at a dead-link entry, or a
// defect — and, per lane, how many routes feed each channel dependency.
//
// A route to LID L reads nothing but entry L of the switches it crosses and
// the state of the links it leaves them by. So the caller reports each
// change to the verifier's inputs before it lands: Touch before an entry is
// rewritten, TouchLink before a link goes down or up. Each takes the routes
// of the LIDs concerned out of the held state, walking them once more
// through the tables they were counted on. The next Check walks them again,
// from every leaf, through the new tables, and re-runs the cycle search
// only on a lane that gained an edge. A Check with nothing touched walks
// nothing.
//
// While the fabric is clean — no addressing error, no defective route, no
// dependency cycle — Check's warning count is exactly Run's: the
// addressing analyzer's orphaned LIDs, plus the dead-pointing entries and
// the fully dead-blocked (leaf, destination) pairs, each analyzer's capped
// at Options.MaxFindings as Run caps them. Otherwise Check reports
// clean=false and the caller runs Run for the findings. The first Check
// after Reset walks every route; from then until the next Reset one Epochs
// follows one fabric: the same tree, endports, table set and options, with
// only the tables' entries and the dead links changing.
type Epochs struct {
	f      fabric
	seeded bool

	addrErrors int    // addressing errors, fixed by the endports
	orphan     bitset // LID -> owned by no endport, yet routed somewhere
	orphans    int

	// blocked[leafIndex*space+lid] marks a route that ends at a dead-link
	// entry. entries[lid] counts the distinct entries for lid that point at
	// a dead link and some route reaches, defects[lid] the routes to lid
	// that end in a defect; deadEntries and defectRoutes are their sums.
	blocked                   bitset
	entries, defects          []int32
	deadEntries, defectRoutes int
	// unreach[p] counts the leaves from which every LID of node p is
	// dead-blocked; unreachable is their sum.
	unreach     []int32
	unreachable int

	dirty     bitset // LIDs whose routes are out of the held state
	dirtyLIDs []int32
	touched   bitset  // nodes whose unreach needs counting again
	seen      []int32 // switch -> the walk generation that last counted its entry
	gen       int32
	cyclic    []bool // per lane: the last cycle search found one
}

// Check verifies the current epoch of in and returns the warning count Run
// would report, with clean=false when Run would report an error (or could
// suppress one past the cap): the caller then needs Run's findings. The
// error covers unusable input only, as Run's does.
func (e *Epochs) Check(in Input, opt Options) (warnings int, clean bool, err error) {
	opt, err = prepare(in, opt)
	if err != nil {
		return 0, false, err
	}
	f := &e.f
	if !e.seeded {
		e.seed(in, opt)
	} else {
		f.in = in
		f.markDead()
	}
	f.w.step(1)
	for _, lid := range e.dirtyLIDs {
		e.dirty.unset(int(lid))
		e.add(int(lid))
	}
	for _, lid := range e.dirtyLIDs {
		if p := int(f.owner[lid]); p >= 0 && e.touched.has(p) {
			e.touched.unset(p)
			e.countUnreachable(p)
		}
	}
	e.dirtyLIDs = e.dirtyLIDs[:0]
	clean = e.addrErrors == 0 && e.defectRoutes == 0
	for l := range f.w.graphs {
		// Only a new edge can close a cycle.
		if g := &f.w.graphs[l]; g.grew || e.cyclic[l] {
			adj, _ := f.buildAdjacency(g)
			e.cyclic[l] = f.cycles.hasCycle(adj)
			g.grew = false
		}
		clean = clean && !e.cyclic[l]
	}
	return e.capped(e.orphans) + e.capped(e.deadEntries+e.unreachable), clean, nil
}

// Touch takes LID lid's routes out of the held state before an entry for
// lid is rewritten, in any table. It does nothing before the first Check,
// on a nil Epochs, or when lid is already touched.
func (e *Epochs) Touch(lid ib.LID) {
	if e == nil || !e.seeded || lid == 0 || int(lid) >= e.f.space || e.dirty.has(int(lid)) {
		return
	}
	e.dirty.set(int(lid))
	e.dirtyLIDs = append(e.dirtyLIDs, int32(lid))
	f := &e.f
	p := f.owner[lid]
	if p < 0 {
		return // no route; Check recounts the orphan
	}
	f.w.step(-1)
	for _, leaf := range f.leaves {
		f.w.walkRoute(leaf, int(lid), p)
	}
	e.deadEntries -= int(e.entries[lid])
	e.defectRoutes -= int(e.defects[lid])
}

// TouchLink touches every LID that the table at either end of the link at
// (switch sw, abstract port) forwards over it, before the link goes down or
// up: the only routes that read its state.
func (e *Epochs) TouchLink(sw int32, port int) {
	if e == nil || !e.seeded {
		return
	}
	f := &e.f
	e.touchRoutedOver(topology.SwitchID(sw), port)
	if ref := f.nbr[int(sw)*f.m+port]; ref.Kind == topology.KindSwitch {
		e.touchRoutedOver(ref.Switch, ref.Port)
	}
}

// touchRoutedOver touches the LIDs switch sw forwards out of port.
func (e *Epochs) touchRoutedOver(sw topology.SwitchID, port int) {
	lft, phys := e.f.in.LFTs[sw], uint8(port+1)
	for lid := 1; lid < e.f.space; lid++ {
		if lft.Port(ib.LID(lid)) == phys {
			e.Touch(ib.LID(lid))
		}
	}
}

// Reset forgets the fabric, so the next Check walks every route, and drops
// every reference to the caller's input.
func (e *Epochs) Reset() {
	e.seeded = false
	e.f.in, e.f.t, e.f.vlOf, e.f.w.rep = Input{}, nil, nil, nil
}

// seed resolves in, runs the addressing check, whose errors are fixed by
// the endports, and marks every LID touched.
func (e *Epochs) seed(in Input, opt Options) {
	f := &e.f
	f.reset(in, opt)
	var rep Report
	f.checkAddressing(&rep)
	e.addrErrors = 0
	for _, r := range f.recs {
		if kinds[r.kind].severity == Error {
			e.addrErrors++
		}
	}
	f.walker(nil)
	space, nodes := f.space, f.t.Nodes()
	e.orphan = e.orphan.resize(space)
	e.blocked = e.blocked.resize(len(f.leaves) * space)
	e.entries = arena.Recycle(e.entries, space)
	e.defects = arena.Recycle(e.defects, space)
	e.unreach = arena.Recycle(e.unreach, nodes)
	e.dirty = e.dirty.resize(space)
	e.touched = e.touched.resize(nodes)
	e.seen = arena.Recycle(e.seen, f.t.Switches())
	e.cyclic = arena.Recycle(e.cyclic, len(f.w.graphs))
	e.orphans, e.deadEntries, e.defectRoutes, e.unreachable, e.gen = 0, 0, 0, 0, 0
	e.dirtyLIDs = e.dirtyLIDs[:0]
	for lid := 1; lid < space; lid++ {
		e.dirty.set(lid)
		e.dirtyLIDs = append(e.dirtyLIDs, int32(lid))
	}
	e.seeded = true
}

// add walks lid's routes from every leaf into the held state (the graphs
// counting up), or recounts an unowned lid's orphan status.
func (e *Epochs) add(lid int) {
	f := &e.f
	p := f.owner[lid]
	if p < 0 {
		_, routed := f.routedOn(lid)
		if now := routed > 0; now != e.orphan.has(lid) {
			if now {
				e.orphan.set(lid)
				e.orphans++
			} else {
				e.orphan.unset(lid)
				e.orphans--
			}
		}
		return
	}
	e.touched.set(int(p))
	e.gen++
	var entries, defects int32
	for li, leaf := range f.leaves {
		i := li*f.space + lid
		e.blocked.unset(i)
		switch f.w.walkRoute(leaf, lid, p) {
		case walkDeadLink:
			e.blocked.set(i)
			// The route's last hop is the dead-pointing entry's channel.
			if sw := f.w.hops[len(f.w.hops)-1] / int32(f.m); e.seen[sw] != e.gen {
				e.seen[sw] = e.gen
				entries++
			}
		case walkDefect:
			defects++
		}
	}
	e.entries[lid], e.defects[lid] = entries, defects
	e.deadEntries += int(entries)
	e.defectRoutes += int(defects)
}

// countUnreachable recounts the leaves from which every LID of node p is
// dead-blocked: walkLeaf's aggregated unreachability warning.
func (e *Epochs) countUnreachable(p int) {
	f := &e.f
	r := f.in.Endports[p]
	n := int32(0)
	for li := range f.leaves {
		routes, blocked := 0, 0
		for off := 0; off < r.Count(); off++ {
			lid := int(r.Base) + off
			if lid <= 0 || lid >= f.space || f.owner[lid] != int32(p) {
				continue
			}
			routes++
			if e.blocked.has(li*f.space + lid) {
				blocked++
			}
		}
		if routes > 0 && blocked == routes {
			n++
		}
	}
	e.unreachable += int(n - e.unreach[p])
	e.unreach[p] = n
}

// capped is how many of an analyzer's n findings Run keeps under the cap.
func (e *Epochs) capped(n int) int {
	if c := e.f.cap; c > 0 && n > c {
		return c
	}
	return n
}

// step sets whether the graphs count walked routes in (+1) or out (-1).
func (w *walker) step(s int32) {
	for l := range w.graphs {
		w.graphs[l].step = s
	}
}
