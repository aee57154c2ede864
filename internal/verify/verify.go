// Package verify is a whole-fabric static analyzer for compiled forwarding
// state: it proves (or refutes) the properties the paper's MLID scheme
// stakes its claims on — every (source, assigned-DLID) route reaches its
// destination, the up*/down* tables induce no credit-loop, the LID
// addressing is consistent and fits the 16-bit space, and load spreads
// evenly across root links — without simulating a single packet.
//
// Four analyzer families report typed findings (severity, fabric location,
// witness path) into one Report:
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
//
// A Run builds no text. It records each finding as a small typed record —
// its kind, which fixes analyzer and severity, and the switch, channel,
// LID, node and count values its message names, with witness channels in
// one shared array — and Report.Findings renders the records into Finding
// values only when a caller reads them. Errors, Warnings and Stats are
// counts; FirstError renders one finding. Epochs re-verifies a fabric
// epoch after epoch for counts alone.
package verify

import (
	"fmt"
	"math"
	"math/bits"

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
	// Stats.Suppressed, never recorded); zero means 64 and a negative
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
// holds points into it: keep copies the findings out.
type fabric struct {
	in    Input
	t     *topology.Tree
	m     int
	space int     // LID table size
	owner []int32 // LID -> owning node, or -1
	// dead is the set of dead links, filled from Input.DeadLinks.
	dead topology.LinkSet
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

	// recs collects the Run's findings and chans their witness channels;
	// found counts each analyzer's, for the cap.
	recs  []record
	chans []int32
	found [numAnalyzers]int

	w      walker    // the reachability walk
	adjTo  []int32   // buildAdjacency's shared successor array
	adj    [][]int32 // buildAdjacency's per-channel successor lists
	cycles cycleSearch
	load   []float64 // quality: per-channel load
	trace  []int32   // quality: the traced flow's out-channels
}

// runPool recycles Run's per-run state: the per-run tables, bitsets,
// adjacency lists, cycle-search arrays and finding records would otherwise
// be nearly all a Run allocates. Idle fabrics survive garbage collections
// (see package arena).
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
	rep := &Report{t: in.Tree, eng: in.Engine}
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
// dead link naming no switch port, a flow outside the fabric, flow weights
// whose link-load sums overflow — and returns opt with its defaults filled
// in.
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
	var total float64
	for i, fl := range opt.Flows {
		if !t.ValidNode(fl.Src) || !t.ValidNode(fl.Dst) || !(fl.Weight >= 0) || math.IsInf(fl.Weight, 1) {
			return opt, fmt.Errorf("verify: flow %d (%d->%d, weight %v) needs nodes in [0,%d) and a finite, non-negative weight",
				i, fl.Src, fl.Dst, fl.Weight, t.Nodes())
		}
		if fl.Src != fl.Dst {
			total += fl.Weight
		}
	}
	// A traced route loads fewer than maxSwitches (2n+2) links, so this
	// product bounds every load sum the quality analyzer forms.
	if links := 2*t.N() + 1; math.IsInf(total*float64(links), 1) {
		return opt, fmt.Errorf("verify: flow weights sum to %v: the link-load sums over routes of up to %d links overflow float64",
			total, links)
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
	f.recs, f.chans, f.found = f.recs[:0], f.chans[:0], [numAnalyzers]int{}
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
	f.markDead()
}

// markDead refills the dead-link set from the input's dead links: both
// directions of each.
func (f *fabric) markDead() {
	f.dead.Reset()
	for _, e := range f.in.DeadLinks {
		f.dead.FailLink(f.t, topology.SwitchID(e[0]), int(e[1]))
	}
}

// release returns f to runPool, dropping its references to the caller's
// input and to the report the walk filled, so the pool pins neither.
func (f *fabric) release() {
	f.in, f.t, f.vlOf, f.w.rep = Input{}, nil, nil, nil
	runPool.Put(f)
}

// add records a finding with witness channels wit unless its analyzer's
// cap is exhausted, in which case it is counted as suppressed.
func (f *fabric) add(rep *Report, r record, wit []int32) {
	a := kinds[r.kind].analyzer
	if f.cap > 0 && f.found[a] >= f.cap {
		rep.Stats.Suppressed++
		return
	}
	f.found[a]++
	r.from = int32(len(f.chans))
	f.chans = append(f.chans, wit...)
	r.to = int32(len(f.chans))
	f.recs = append(f.recs, r)
}

// keep copies the collected findings and their witness channels into the
// report at exact size, so the report points into none of the fabric.
func (f *fabric) keep(rep *Report) {
	rep.recs = exact(f.recs)
	rep.chans = exact(f.chans)
}

// exact returns a copy of s at exact size, nil when s is empty.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
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
