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
//     the same walks — generalizing core.CheckDeadlockFree to arbitrary
//     fault-repaired tables, which may legally contain broken entries —
//     and reports the shortest witness cycle if one exists.
//   - addressing: LID-space exhaustion (MLID on FT(16,3) needs 65,537
//     LIDs, one past the 16-bit space), LMC-block overlap, duplicate and
//     orphaned LID assignments.
//   - quality: per-link maximal load under all-to-all and supplied traffic
//     matrices, path dilation against the minimal up*/down* path, and the
//     root-link balance spread.
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

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
)

// Matrix is one named traffic matrix for the quality analyzer.
type Matrix struct {
	Name  string
	Flows []core.Flow
}

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
	// Matrices are extra traffic matrices for the quality analyzer, on top
	// of the default all-to-all.
	Matrices []Matrix
	// SkipQuality drops the quality analyzer — the right call inside the
	// simulator's per-epoch hook, where only the safety properties matter.
	SkipQuality bool
	// MaxFindings caps findings per analyzer (excess is counted in
	// Stats.Suppressed); zero means 64.
	MaxFindings int
	// Parallelism bounds the worker count of the reachability walk, whose
	// per-leaf sources are independent (findings merge in canonical order,
	// so the report is byte-identical at any setting). <= 1 runs serial —
	// the right call inside the simulator's per-epoch hook, whose caller may
	// already be one of many concurrent campaign runs.
	Parallelism int
}

// fabric is the resolved view of an Input the analyzers share.
type fabric struct {
	in    Input
	t     *topology.Tree
	m     int
	space int     // LID table size
	owner []int32 // LID -> owning node, or -1
	dead  []bool  // global port id (sw*m+port) -> endpoint of a dead link
	cap   int     // per-analyzer finding cap
}

// Run executes every analyzer over the input and returns the combined
// report. The error covers unusable input only (nil tree, mismatched table
// set); defects in the forwarding state itself are findings, never errors.
func Run(in Input, opt Options) (*Report, error) {
	if in.Tree == nil {
		return nil, fmt.Errorf("verify: Input.Tree is required")
	}
	t := in.Tree
	if len(in.Endports) != t.Nodes() {
		return nil, fmt.Errorf("verify: %d endport ranges for %d nodes", len(in.Endports), t.Nodes())
	}
	if len(in.LFTs) != t.Switches() {
		return nil, fmt.Errorf("verify: %d forwarding tables for %d switches", len(in.LFTs), t.Switches())
	}
	for s, lft := range in.LFTs {
		if lft == nil {
			return nil, fmt.Errorf("verify: switch %d has no forwarding table", s)
		}
	}
	if opt.VLs <= 0 {
		opt.VLs = 1
	}
	if opt.MaxFindings == 0 {
		opt.MaxFindings = 64
	}

	f := &fabric{in: in, t: t, m: t.M(), cap: opt.MaxFindings}
	f.space = 0
	for _, lft := range in.LFTs {
		if lft.Size() > f.space {
			f.space = lft.Size()
		}
	}
	f.dead = make([]bool, t.Switches()*f.m)
	for _, e := range in.DeadLinks {
		sw, port := topology.SwitchID(e[0]), int(e[1])
		if !t.ValidSwitch(sw) || port < 0 || port >= f.m {
			continue
		}
		f.dead[int(sw)*f.m+port] = true
		if ref := t.SwitchNeighbor(sw, port); ref.Kind == topology.KindSwitch {
			f.dead[int(ref.Switch)*f.m+ref.Port] = true
		}
	}

	rep := &Report{}
	rep.Stats.VLs = opt.VLs
	f.checkAddressing(rep)
	f.checkReachability(rep, opt.Parallelism)
	f.checkDeadlock(rep, opt)
	if !opt.SkipQuality {
		f.checkQuality(rep, opt)
	}
	return rep, nil
}

// deadAt reports whether the link out of (sw, abstract port) is down.
func (f *fabric) deadAt(sw topology.SwitchID, port int) bool {
	return f.dead[int(sw)*f.m+port]
}

// linkLabel names a directed link by its transmitting switch endpoint.
func (f *fabric) linkLabel(sw topology.SwitchID, port int) string {
	return fmt.Sprintf("%s:%d", f.t.SwitchLabel(sw), port)
}
