package verify

import (
	"slices"

	"mlid/internal/arena"
)

// depGraph is one lane's channel-dependency graph as the walks build it:
// the channels some route holds, and an edge set indexed
// prevChannel*m + nextPort — the next channel's switch is prevChannel's
// neighbor, so the port alone names it.
//
// A counted graph (Epochs') also keeps each edge's route count in refs, so
// a route can be taken out again: dep adds step (+1 or -1) to the edge's
// count, an edge is in the set while its count is positive, and grew
// records that an edge entered the set. It does not track used channels.
type depGraph struct {
	m     int
	used  bitset
	edges bitset
	refs  []int32
	step  int32
	grew  bool
}

// reset empties g for f's fabric, reusing its bitsets, and makes it a
// counted graph when counted is set.
func (g *depGraph) reset(f *fabric, counted bool) {
	numChan := f.t.Switches() * f.m
	g.m = f.m
	g.used = g.used.resize(numChan)
	g.edges = g.edges.resize(numChan * f.m)
	g.step, g.grew = 1, false
	if counted {
		g.refs = arena.Recycle(g.refs, numChan*f.m)
	} else {
		g.refs = nil
	}
}

// dep records that a route holds channel cur, out of port, having arrived
// holding prev (prev < 0: cur is the route's first channel).
func (g *depGraph) dep(prev, cur int32, port int) {
	if g.refs != nil {
		if prev >= 0 {
			g.count(int(prev)*g.m + port)
		}
		return
	}
	g.used.set(int(cur))
	if prev >= 0 {
		g.edges.set(int(prev)*g.m + port)
	}
}

// count adds g.step to edge e's route count, keeping the edge set in step.
func (g *depGraph) count(e int) {
	n := g.refs[e] + g.step
	g.refs[e] = n
	switch {
	case n == 0:
		g.edges.unset(e)
	case n == 1 && g.step > 0:
		g.edges.set(e)
		g.grew = true
	}
}

// checkDeadlock searches the channel-dependency graph each virtual lane's
// traffic induces — an edge from channel A to channel B whenever some route
// can hold A while requesting B — for cycles (Dally & Seitz: acyclic proves
// deadlock freedom under credit-based flow control). The reachability walks
// built the graphs, one per lane, or one shared graph when VLOf is nil
// (every lane carries every route, so one graph proves all lanes).
//
// Routes through broken tables contribute the dependencies of the hops they
// actually traverse instead of failing the whole check (a packet heading
// into a dead link drops there instantly, holding nothing further, so the
// dead hop forms no edge), and the cycle witness is the shortest one in the
// graph, not the first one a DFS stumbles into.
func (f *fabric) checkDeadlock(rep *Report, graphs []depGraph) {
	for vl := range graphs {
		g := &graphs[vl]
		if channels := g.used.count(); channels > rep.Stats.Channels {
			rep.Stats.Channels = channels
		}
		adj, deps := f.buildAdjacency(g)
		if deps > rep.Stats.Dependencies {
			rep.Stats.Dependencies = deps
		}
		cycle := f.cycles.shortest(adj)
		if cycle == nil {
			continue
		}
		lane := -1 // every lane
		if f.vlOf != nil {
			lane = vl
		}
		f.add(rep, record{kind: kindCycle, n: lane}, cycle)
	}
}

// buildAdjacency turns the edge set into adjacency lists sharing one
// backing array, and returns them with the edge count. Scanning the set in
// index order yields each channel's successors already ascending (they sit
// on one neighbor switch, ordered by port), so every later traversal is
// deterministic without a sort. The lists live in f's scratch, valid until
// the next call.
func (f *fabric) buildAdjacency(g *depGraph) ([][]int32, int) {
	numChan := len(f.nbr)
	to := slices.Grow(f.adjTo[:0], g.edges.count())
	adj := arena.Recycle(f.adj, numChan)
	for a := 0; a < numChan; a++ {
		start := len(to)
		base := int32(f.nbr[a].Switch) * int32(f.m)
		for p := 0; p < f.m; p++ {
			if g.edges.has(a*f.m + p) {
				to = append(to, base+int32(p))
			}
		}
		adj[a] = to[start:len(to):len(to)]
	}
	f.adjTo, f.adj = to, adj
	return adj, len(to)
}

// cycleSearch is the cycle search's scratch, reused lane after lane and
// run after run: the BFS distance, parent and queue arrays and the DFS
// colors and stack.
type cycleSearch struct {
	dist, parent, queue []int32
	color               []uint8
	stack               []dfsFrame
}

// dfsFrame is one level of hasCycle's iterative DFS: a node and the index
// of its next successor to visit.
type dfsFrame struct {
	node int32
	next int
}

// shortest returns the shortest directed cycle in the graph (nil if
// acyclic). A cheap DFS 3-coloring decides existence first; only when a
// cycle exists does the quadratic shortest-search run (per-node BFS back to
// itself), so the healthy-fabric path stays linear. The cycle returned is
// freshly allocated.
func (cs *cycleSearch) shortest(adj [][]int32) []int32 {
	numChan := len(adj)
	if !cs.hasCycle(adj) {
		return nil
	}
	var best []int32
	cs.dist = arena.Recycle(cs.dist, numChan)
	cs.parent = arena.Recycle(cs.parent, numChan)
	// Each BFS enqueues a channel at most once, so the queue never
	// outgrows numChan.
	cs.queue = slices.Grow(cs.queue[:0], numChan)
	dist, parent, queue := cs.dist, cs.parent, cs.queue
	for start := 0; start < numChan; start++ {
		if len(adj[start]) == 0 {
			continue
		}
		if best != nil && len(best) == 2 {
			break // nothing shorter than a 2-cycle can follow (self-loops handled below)
		}
		// Self-loop: the shortest possible cycle.
		for _, nb := range adj[start] {
			if int(nb) == start {
				return []int32{int32(start)}
			}
		}
		for i := range dist {
			dist[i] = -1
			parent[i] = -1
		}
		queue = queue[:0]
		for _, nb := range adj[start] {
			if dist[nb] < 0 {
				dist[nb] = 1
				parent[nb] = int32(start)
				queue = append(queue, nb)
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if best != nil && int(dist[v]) >= len(best) {
				break
			}
			for _, nb := range adj[v] {
				if int(nb) == start {
					cyc := []int32{int32(start)}
					for u := v; u != int32(start); u = parent[u] {
						cyc = append(cyc, u)
					}
					// Reverse into walk order: start -> ... -> v -> start.
					for i, j := 1, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					if best == nil || len(cyc) < len(best) {
						best = cyc
					}
					break
				}
				if dist[nb] < 0 {
					dist[nb] = dist[v] + 1
					parent[nb] = v
					queue = append(queue, nb)
				}
			}
		}
	}
	return best
}

// hasCycle is an iterative DFS 3-coloring over the whole graph.
func (cs *cycleSearch) hasCycle(adj [][]int32) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	// A channel turns gray at most once, so the stack never outgrows the
	// channel count.
	cs.color = arena.Recycle(cs.color, len(adj))
	cs.stack = slices.Grow(cs.stack[:0], len(adj))
	color, stack := cs.color, cs.stack
	for start := range adj {
		if color[start] != white || len(adj[start]) == 0 {
			continue
		}
		color[start] = gray
		stack = append(stack[:0], dfsFrame{node: int32(start)})
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			if fr.next >= len(adj[fr.node]) {
				color[fr.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			nb := adj[fr.node][fr.next]
			fr.next++
			switch color[nb] {
			case gray:
				return true
			case white:
				color[nb] = gray
				stack = append(stack, dfsFrame{node: nb})
			}
		}
	}
	return false
}
