// Package verify is a whole-fabric static analyzer for compiled forwarding
// state: it proves (or refutes) the properties the paper's MLID scheme
// stakes its claims on — every (source, assigned-DLID) route reaches its
// destination, the up*/down* tables induce no credit-loop, the LID
// addressing is consistent and fits the 16-bit space, and load spreads
// evenly across root links — without simulating a single packet.
//
// Four analyzer families emit typed findings (severity, fabric location,
// witness path) through a shared reporter:
//
//   - reachability: walks every (leaf switch, assigned LID) route through
//     the live tables; flags forwarding loops (with the cycle as witness),
//     dead-end entries, entries pointing at down links, misdeliveries, and
//     destinations left unreachable.
//   - deadlock: builds the per-virtual-lane channel-dependency graph from
//     the same walks — for arbitrary fault-repaired tables too, which may
//     legally contain broken entries — and reports the shortest witness
//     cycle if one exists. It is the repo's one credit-loop checker:
//     mlid.CheckDeadlockFree wraps it.
//   - addressing: LID-space exhaustion (MLID on FT(16,3) needs 65,537
//     LIDs, one past the 16-bit space), LMC-block overlap, duplicate and
//     orphaned LID assignments.
//   - quality: per-link maximal load under a traffic matrix, all-to-all by
//     default, path dilation against the minimal up*/down* path, and the
//     root-link balance spread. It is the repository's one static link-load
//     analyzer: it measures the tables the subnet manager configured.
//
// Severity follows one rule: a defect a recorded dead link explains is a
// Warning (the packet drops observably — the documented fate of
// RepairSubnet's broken descending entries); anything the faults do not
// explain — a loop, a cycle, a dead end or misdelivery on a healthy route —
// is an Error. A fabric with no dead links must therefore verify with zero
// findings above Info, and a mid-repair fabric must verify with zero
// errors. See DESIGN.md, "Static guarantees".
package verify

import (
	"fmt"
	"math/bits"
	"strconv"

	"mlid/internal/arena"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// Input is the forwarding state under verification. It is deliberately a
// plain bundle — callers hand over live tables (the simulator's mid-repair
// view), repaired tables (core.RepairSubnet output), or a freshly
// configured subnet (FromSubnet) without conversion.
type Input struct {
	Tree *topology.Tree
	// Endports[p] is node p's LID range — the addressing under test.
	Endports []ib.LIDRange
	// LFTs[s] is switch s's forwarding table — the routing under test.
	LFTs []*ib.LFT
	// Engine, when non-nil, enables the scheme-level addressing checks
	// (LID-space sizing, LMC bounds) and provides the default path
	// selection for the quality analyzer.
	Engine ib.RoutingEngine
	// DeadLinks lists known-down links by their switch-side endpoints
	// (switch id, abstract port), the same naming sim's fault machinery
	// uses. Defects these links explain are warnings, not errors.
	DeadLinks [][2]int32
	// SelectDLID, when non-nil, overrides path selection for the quality
	// analyzer: the DLID a source actually places on packets to dst
	// (ok=false skips the flow). Used to verify fault-avoiding reselection.
	SelectDLID func(src, dst topology.NodeID) (ib.LID, bool)
}

// FromSubnet bundles a configured subnet for verification.
func FromSubnet(sn *ib.Subnet) Input {
	return Input{Tree: sn.Tree, Endports: sn.Endports, LFTs: sn.LFTs, Engine: sn.Engine}
}

// Options tunes a Run.
type Options struct {
	// VLs is the data virtual-lane count to prove deadlock freedom for;
	// zero means 1.
	VLs int
	// VLOf, when non-nil, is the static DLID-to-lane mapping (the VLByDLID
	// policy); nil means every lane carries every route, so one lane's
	// proof covers all of them.
	VLOf func(dlid ib.LID, vls int) int
	// Flows, when non-nil, is the traffic matrix the quality analyzer
	// traces: each flow adds its weight to the links it crosses, and
	// self-flows are skipped. Nil traces the unit all-to-all matrix; an
	// empty non-nil slice traces nothing.
	Flows []traffic.Flow
	// SkipQuality drops the quality analyzer — the right call inside the
	// simulator's per-epoch hook, where only the safety properties matter.
	SkipQuality bool
	// MaxFindings caps findings per analyzer (excess is counted in
	// Stats.Suppressed, never formatted); zero means 64 and a negative
	// value means unlimited.
	MaxFindings int
	// Parallelism has no effect: the reachability walk is serial. It
	// remains only so existing callers compile, and is to be deleted once
	// none sets it.
	Parallelism int
}

// fabric is the resolved view of an Input the analyzers share, and the
// per-run scratch they reuse: a fabric comes from runPool, so every slice
// here is resized in place run after run (see reset). Nothing a Report
// holds points into it; a Report's labels are strings the label tables
// also hold, and strings are never written again.
type fabric struct {
	in    Input
	t     *topology.Tree
	m     int
	space int     // LID table size
	owner []int32 // LID -> owning node, or -1
	dead  []bool  // global port id (sw*m+port) -> endpoint of a dead link
	// nbr[sw*m+port] is what the port is wired to: the walks' neighbor
	// table, resolved once per Run instead of per hop.
	nbr    []topology.PortRef
	leaves []topology.SwitchID
	// maxSwitches bounds a walk: the longest legal up*/down* path, plus
	// slack.
	maxSwitches int
	cap         int // per-analyzer finding cap
	vls         int
	vlOf        func(dlid ib.LID, vls int) int

	// findings collects the Run's findings, and wit the witnesses the walk
	// renders; keep copies both into the Report at exact size.
	findings []Finding
	wit      []string
	// chanLabels[c] and swLabels[sw] name channel c (sw*m+port) and switch
	// sw, each built on first use. Labels depend on the tree's shape alone,
	// so they outlive a Run and are dropped only when labelShape, the (m, n)
	// they were built for, changes.
	chanLabels []string
	swLabels   []string
	labelShape [2]int

	w      walker    // the reachability walk
	adjTo  []int32   // buildAdjacency's shared successor array
	adj    [][]int32 // buildAdjacency's per-channel successor lists
	cycles cycleSearch
	load   []float64 // quality: per-channel load
	trace  []int32   // quality: the traced flow's out-channels
}

// runPool recycles Run's per-run state. The simulator re-verifies the
// fabric at every SM epoch — hundreds of Runs per degraded sweep, each on
// the same few fabric sizes — and the per-run tables, bitsets, adjacency
// lists and cycle-search arrays would otherwise be nearly all a clean Run
// allocates. Idle fabrics survive garbage collections (see package arena).
var runPool arena.Pool[fabric]

// Run executes every analyzer over the input and returns the combined
// report. The error covers unusable input only (nil tree, mismatched table
// set, a dead link naming no switch port); defects in the forwarding state
// itself are findings, never errors.
func Run(in Input, opt Options) (*Report, error) {
	opt, err := prepare(in, opt)
	if err != nil {
		return nil, err
	}
	f := runPool.Get()
	defer f.release()
	f.reset(in, opt)
	rep := &Report{}
	rep.Stats.VLs = opt.VLs
	f.checkAddressing(rep)
	graphs := f.checkReachability(rep)
	f.checkDeadlock(rep, graphs)
	if !opt.SkipQuality {
		f.checkQuality(rep, opt.Flows)
	}
	f.keep(rep)
	return rep, nil
}

// prepare rejects unusable input — a nil tree, a mismatched table set, a
// dead link naming no switch port, a flow outside the fabric — and returns
// opt with its defaults filled in.
func prepare(in Input, opt Options) (Options, error) {
	if in.Tree == nil {
		return opt, fmt.Errorf("verify: Input.Tree is required")
	}
	t := in.Tree
	if len(in.Endports) != t.Nodes() {
		return opt, fmt.Errorf("verify: %d endport ranges for %d nodes", len(in.Endports), t.Nodes())
	}
	if len(in.LFTs) != t.Switches() {
		return opt, fmt.Errorf("verify: %d forwarding tables for %d switches", len(in.LFTs), t.Switches())
	}
	for s, lft := range in.LFTs {
		if lft == nil {
			return opt, fmt.Errorf("verify: switch %d has no forwarding table", s)
		}
	}
	m := t.M()
	for i, e := range in.DeadLinks {
		if !t.ValidSwitch(topology.SwitchID(e[0])) || e[1] < 0 || int(e[1]) >= m {
			return opt, fmt.Errorf("verify: dead link %d (switch %d, port %d) names no switch port: the fabric has %d switches of %d ports",
				i, e[0], e[1], t.Switches(), m)
		}
	}
	for i, fl := range opt.Flows {
		if !t.ValidNode(fl.Src) || !t.ValidNode(fl.Dst) || !(fl.Weight >= 0) {
			return opt, fmt.Errorf("verify: flow %d (%d->%d, weight %v) needs nodes in [0,%d) and a non-negative weight",
				i, fl.Src, fl.Dst, fl.Weight, t.Nodes())
		}
	}
	if opt.VLs <= 0 {
		opt.VLs = 1
	}
	if opt.MaxFindings == 0 {
		opt.MaxFindings = 64
	}
	return opt, nil
}

// reset resolves in into f, resizing the tables in place.
func (f *fabric) reset(in Input, opt Options) {
	t := in.Tree
	m := t.M()
	f.in, f.t, f.m = in, t, m
	f.maxSwitches, f.cap, f.vls, f.vlOf = 2*t.N()+2, opt.MaxFindings, opt.VLs, opt.VLOf
	f.space = 0
	for _, lft := range in.LFTs {
		if lft.Size() > f.space {
			f.space = lft.Size()
		}
	}
	f.nbr = arena.Recycle(f.nbr, t.Switches()*m)
	f.leaves = f.leaves[:0]
	for sw := 0; sw < t.Switches(); sw++ {
		id := topology.SwitchID(sw)
		if t.IsLeaf(id) {
			f.leaves = append(f.leaves, id)
		}
		for p := 0; p < m; p++ {
			f.nbr[sw*m+p] = t.SwitchNeighbor(id, p)
		}
	}
	if shape := [2]int{m, t.N()}; f.labelShape != shape {
		f.chanLabels = arena.Recycle(f.chanLabels, t.Switches()*m)
		f.swLabels = arena.Recycle(f.swLabels, t.Switches())
		f.labelShape = shape
	}
	f.markDead()
}

// markDead rebuilds the dead-channel table from the input's dead links:
// both directions of each.
func (f *fabric) markDead() {
	m := f.m
	f.dead = arena.Recycle(f.dead, len(f.nbr))
	for _, e := range f.in.DeadLinks {
		c := int(e[0])*m + int(e[1])
		f.dead[c] = true
		if ref := f.nbr[c]; ref.Kind == topology.KindSwitch {
			f.dead[int(ref.Switch)*m+ref.Port] = true
		}
	}
}

// release returns f to runPool, dropping its references to the caller's
// input and to the report the walk filled, so the pool pins neither.
func (f *fabric) release() {
	f.in, f.t, f.vlOf, f.w.rep = Input{}, nil, nil, nil
	runPool.Put(f)
}

// deadAt reports whether the link out of (sw, abstract port) is down.
func (f *fabric) deadAt(sw topology.SwitchID, port int) bool {
	return f.dead[int(sw)*f.m+port]
}

// chanLabel names channel c (sw*m+port), a directed link, by its
// transmitting switch endpoint.
func (f *fabric) chanLabel(c int) string {
	if l := f.chanLabels[c]; l != "" {
		return l
	}
	var buf [64]byte
	b := append(f.t.AppendSwitchLabel(buf[:0], topology.SwitchID(c/f.m)), ':')
	f.chanLabels[c] = string(strconv.AppendInt(b, int64(c%f.m), 10))
	return f.chanLabels[c]
}

// switchLabel names switch sw.
func (f *fabric) switchLabel(sw topology.SwitchID) string {
	if f.swLabels[sw] == "" {
		f.swLabels[sw] = f.t.SwitchLabel(sw)
	}
	return f.swLabels[sw]
}

// add records a finding unless its analyzer's cap is exhausted, in which
// case it is counted as suppressed.
func (f *fabric) add(rep *Report, fd Finding) {
	fd.valid()
	n := 0
	for _, g := range f.findings {
		if g.Analyzer == fd.Analyzer {
			n++
		}
	}
	if f.cap > 0 && n >= f.cap {
		rep.Stats.Suppressed++
		return
	}
	f.findings = append(f.findings, fd)
}

// keep copies the collected findings into the report at exact size — one
// array for the findings, one for all their witnesses — and empties the
// scratch, so the report points into none of it and the pool pins none of
// the report's strings.
func (f *fabric) keep(rep *Report) {
	if len(f.findings) > 0 {
		n := 0
		for _, fd := range f.findings {
			n += len(fd.Witness)
		}
		rep.Findings = make([]Finding, len(f.findings))
		copy(rep.Findings, f.findings)
		wit := make([]string, 0, n)
		for i := range rep.Findings {
			if w := rep.Findings[i].Witness; len(w) > 0 {
				start := len(wit)
				wit = append(wit, w...)
				rep.Findings[i].Witness = wit[start:len(wit):len(wit)]
			}
		}
	}
	clear(f.findings)
	f.findings = f.findings[:0]
	f.wit = f.wit[:0]
}

// bitset is a dense set of small non-negative integers: the walks' claim
// and dependency sets, which a map would make the dominant allocation.
type bitset []uint64

// resize returns an empty set of capacity n, reusing b's words.
func (b bitset) resize(n int) bitset { return arena.Recycle(b, (n+63)/64) }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) unset(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }

// count returns the number of members.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
