package verify

import (
	"fmt"
	"slices"

	"mlid/internal/arena"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// checkQuality computes the static routing-quality metrics for the traffic
// matrix flows, or for all-to-all when flows is nil: per-link maximal load (the
// congestion bound simulation throughput cannot beat), path dilation
// against the minimal up*/down* path, and the root-link balance spread. It
// traces every flow through the live tables; only flows whose selected
// route actually reaches the destination carry load — a flow dying at a
// dead link contributes to Unrouted, not to congestion. Metrics are
// reported as an Info finding and in Stats.Quality; quality never fails a
// fabric on its own.
func (f *fabric) checkQuality(rep *Report, flows []traffic.Flow) {
	t := f.t
	n := t.Nodes()
	numChan := t.Switches() * f.m
	f.load = arena.Recycle(f.load, numChan)
	f.trace = slices.Grow(f.trace[:0], f.maxSwitches)
	load := f.load
	q := QualityReport{Matrix: "all-to-all"}
	var dilSum float64
	routed := 0

	// traceFlow routes one flow of weight w through the tables.
	traceFlow := func(src, dst topology.NodeID, w float64) {
		q.Flows++
		dlid, ok := f.selectDLID(src, dst)
		if !ok {
			q.Unrouted++
			return
		}
		path, reached := f.tracePath(src, dst, dlid, f.trace)
		if !reached {
			q.Unrouted++
			return
		}
		routed++
		// The final hop is the destination's attachment link; it is
		// loaded identically by every scheme (all of dst's demand), so the
		// congestion metrics cover the inter-switch hops only.
		for _, c := range path[:len(path)-1] {
			load[c] += w
		}
		if min := f.minSwitches(src, dst); min > 0 {
			dil := float64(len(path)) / float64(min)
			dilSum += dil
			if dil > q.MaxDilation {
				q.MaxDilation = dil
			}
		}
	}
	if flows != nil {
		q.Matrix = "flows"
		for _, fl := range flows {
			if fl.Src != fl.Dst {
				traceFlow(fl.Src, fl.Dst, fl.Weight)
			}
		}
	} else {
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					traceFlow(topology.NodeID(s), topology.NodeID(d), 1)
				}
			}
		}
	}
	if routed > 0 {
		q.MeanDilation = dilSum / float64(routed)
	}

	// Inter-switch load summary; ascending channel-id scan keeps the float
	// fold and the max tie-break deterministic.
	usedLinks := 0
	var sum float64
	maxAt := -1
	for c := 0; c < numChan; c++ {
		v := load[c]
		if v == 0 {
			continue
		}
		usedLinks++
		sum += v
		if v > q.MaxLoad {
			q.MaxLoad = v
			maxAt = c
		}
	}
	if usedLinks > 0 {
		q.MeanLoad = sum / float64(usedLinks)
	}
	if maxAt >= 0 {
		q.MaxLink = f.chanLabel(maxAt)
	}

	// Root-link balance: the descending links out of root switches, dead
	// links excluded. The MLID root-per-LID assignment is designed to keep
	// this spread flat; SLID concentrates destinations on fixed roots.
	rootLinks := 0
	var rootSum float64
	first := true
	for sw := 0; sw < t.Switches(); sw++ {
		if !t.IsRoot(topology.SwitchID(sw)) {
			continue
		}
		for p := 0; p < f.m; p++ {
			if f.deadAt(topology.SwitchID(sw), p) {
				continue
			}
			v := load[sw*f.m+p]
			rootLinks++
			rootSum += v
			if v > q.RootLinkMax {
				q.RootLinkMax = v
			}
			if first || v < q.RootLinkMin {
				q.RootLinkMin = v
				first = false
			}
		}
	}
	if rootLinks > 0 {
		q.RootLinkMean = rootSum / float64(rootLinks)
	}

	rep.Stats.Quality = append(rep.Stats.Quality, q)
	f.add(rep, Finding{
		Analyzer: "quality",
		Severity: Info,
		Location: t.String(),
		Message: fmt.Sprintf("%s: max inter-switch load %.1f at %s (mean %.1f), dilation mean %.3f, root links max/mean/min %.1f/%.1f/%.1f, %d/%d flows unrouted",
			q.Matrix, q.MaxLoad, q.MaxLink, q.MeanLoad, q.MeanDilation,
			q.RootLinkMax, q.RootLinkMean, q.RootLinkMin, q.Unrouted, q.Flows),
	})
}

// selectDLID resolves the DLID a source uses toward dst: the explicit
// override, the engine's path selection, or the destination's base LID.
func (f *fabric) selectDLID(src, dst topology.NodeID) (ib.LID, bool) {
	if f.in.SelectDLID != nil {
		return f.in.SelectDLID(src, dst)
	}
	if f.in.Engine != nil {
		return f.in.Engine.DLID(f.t, src, dst), true
	}
	return f.in.Endports[dst].Base, true
}

// tracePath walks the tables from src's leaf toward dlid and returns the
// out-channels crossed (reusing scratch) and whether the walk delivered to
// dst. Any defect — dead end, dead link, loop, misdelivery — is a failed
// trace here; reachability owns the findings.
func (f *fabric) tracePath(src, dst topology.NodeID, dlid ib.LID, scratch []int32) ([]int32, bool) {
	t := f.t
	if int(dlid) <= 0 || int(dlid) >= f.space {
		return scratch[:0], false
	}
	path := scratch[:0]
	sw, _ := t.NodeAttachment(src)
	for hops := 0; hops < f.maxSwitches; hops++ {
		phys := f.in.LFTs[sw].Port(dlid)
		if phys == ib.PortNone || phys == 0 || int(phys) > f.m {
			return path, false
		}
		ab := int(phys) - 1
		if f.deadAt(sw, ab) {
			return path, false
		}
		c := int(sw)*f.m + ab
		path = append(path, int32(c))
		ref := &f.nbr[c]
		switch ref.Kind {
		case topology.KindNone:
			return path, false
		case topology.KindNode:
			return path, ref.Node == dst
		}
		sw = ref.Switch
	}
	return path, false
}

// minSwitches is the minimal number of switches an up*/down* path between
// the pair crosses: 1 on a shared leaf, else up to the least common
// ancestor level and back down — 2*(n-1-alpha)+1 for prefix length alpha.
func (f *fabric) minSwitches(src, dst topology.NodeID) int {
	alpha := f.t.GCPLen(src, dst)
	if alpha >= f.t.N()-1 {
		return 1
	}
	return 2*(f.t.N()-1-alpha) + 1
}
