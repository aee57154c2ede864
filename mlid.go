// Package mlid is a Go reproduction of "A Multiple LID Routing Scheme for
// Fat-Tree-Based InfiniBand Networks" (Xuan-Yi Lin, Yeh-Ching Chung and
// Tai-Yi Huang, IPDPS 2004).
//
// The library provides, as its public surface:
//
//   - m-port n-tree fat-tree topologies, FT(m, n), built from fixed-arity
//     m-port switches (NewTree and the Tree methods);
//   - the paper's Multiple LID (MLID) routing scheme and its Single LID
//     (SLID) baseline: node addressing via the InfiniBand LMC mechanism,
//     source-rank path selection, and closed-form forwarding-table
//     assignment (MLID, SLID, Trace, AllPaths);
//   - an InfiniBand subnet model with a subnet manager that discovers the
//     fabric, assigns LIDs and programs every linear forwarding table
//     (Configure);
//   - a discrete-event InfiniBand network simulator with virtual lanes,
//     virtual cut-through crossbar switches and credit-based link-level
//     flow control (Simulate);
//   - the paper's evaluation harness: Table 1 and the eight
//     latency-vs-accepted-traffic figures (EvalFigures, EvalTable1).
//
// A minimal end-to-end use:
//
//	tree, _ := mlid.NewTree(8, 2)                     // 32 nodes, 12 switches
//	subnet, _ := mlid.Configure(tree, mlid.MLID())    // SM assigns LIDs + LFTs
//	res, _ := mlid.Simulate(mlid.SimConfig{
//		Subnet:      subnet,
//		Pattern:     mlid.UniformTraffic(tree.Nodes()),
//		OfferedLoad: 0.4, // bytes/ns per node
//	})
//	fmt.Println(res.Accepted, res.MeanLatencyNs)
//
// See DESIGN.md for the system inventory and the reconstruction notes, and
// EXPERIMENTS.md for paper-vs-measured results.
package mlid

import (
	"fmt"

	"mlid/internal/core"
	"mlid/internal/experiment"
	"mlid/internal/ib"
	"mlid/internal/sim"
	"mlid/internal/sm"
	"mlid/internal/stats"
	"mlid/internal/topology"
	"mlid/internal/traffic"
	"mlid/internal/verify"
)

// Tree is an m-port n-tree fat-tree, FT(m, n). See NewTree.
type Tree = topology.Tree

// NodeID identifies a processing node; it equals the node's PID.
type NodeID = topology.NodeID

// SwitchID identifies a communication switch.
type SwitchID = topology.SwitchID

// NewTree constructs FT(m, n): 2*(m/2)^n processing nodes interconnected by
// (2n-1)*(m/2)^(n-1) m-port switches. m must be a power of two >= 4; n >= 1.
func NewTree(m, n int) (*Tree, error) { return topology.New(m, n) }

// Scheme is a routing scheme: node addressing, path selection and
// forwarding-table assignment. MLID and SLID construct the two schemes the
// paper evaluates.
type Scheme = core.Scheme

// MLID returns the paper's Multiple LID routing scheme: every node owns
// (m/2)^(n-1) LIDs, one per distinct ascending path, and sources select the
// destination LID by their own rank so that group traffic climbs over
// disjoint links.
func MLID() Scheme { return core.NewMLID() }

// SLID returns the single-LID baseline scheme.
func SLID() Scheme { return core.NewSLID() }

// SchemeByName resolves "MLID" or "SLID" (case-insensitive).
func SchemeByName(name string) (Scheme, error) { return core.ByName(name) }

// Schemes returns both schemes, MLID first.
func Schemes() []Scheme { return core.Schemes() }

// LID is an InfiniBand local identifier.
type LID = ib.LID

// Subnet is a configured InfiniBand subnet: LID ranges for every endport and
// a linear forwarding table in every switch.
type Subnet = ib.Subnet

// LFT is one switch's linear forwarding table (DLID to physical port).
type LFT = ib.LFT

// ErrLIDSpaceExhausted is returned (wrapped) by Configure when the scheme's
// LID plan does not fit the 16-bit LID space — e.g. MLID on FT(16,3), which
// needs 65,537 LIDs. Callers match it with errors.Is and suggest the SLID
// scheme or a smaller tree.
var ErrLIDSpaceExhausted = ib.ErrLIDSpaceExhausted

// Configure runs the subnet manager against the fabric: discovery, LID
// assignment with the scheme's LMC, and forwarding-table programming.
func Configure(t *Tree, s Scheme) (*Subnet, error) {
	return (&ib.SubnetManager{Tree: t, Engine: s}).Configure()
}

// ConfigureViaMAD brings the fabric up through the management plane instead
// of the topology oracle: the subnet manager hosted at the origin node
// explores the fabric with directed-route NodeInfo probes, recognizes the
// m-port n-tree from the discovered port numbers, assigns LIDs with
// PortInfo SMPs and programs forwarding tables block by block — producing a
// subnet provably equal to Configure's using only what a real InfiniBand SM
// can see.
func ConfigureViaMAD(t *Tree, s Scheme, origin NodeID) (*Subnet, error) {
	m := &sm.MADSubnetManager{Fabric: ib.NewSMAFabric(t), Origin: origin, Engine: s}
	return m.Configure()
}

// ExportSubnet serializes a configured subnet (fabric parameters, LID
// ranges, forwarding tables) for offline inspection or re-import.
func ExportSubnet(sn *Subnet) ([]byte, error) { return sn.Export() }

// ImportSubnet reconstructs a subnet from ExportSubnet's output; the stored
// scheme name selects the engine.
func ImportSubnet(data []byte) (*Subnet, error) {
	// Peek the scheme name by trying both engines.
	for _, s := range core.Schemes() {
		if sn, err := ib.Import(data, s); err == nil {
			return sn, nil
		}
	}
	// Re-run with MLID to surface the real error.
	return ib.Import(data, core.NewMLID())
}

// Path is a fully resolved route from a source node to a destination LID's
// owner.
type Path = core.Path

// Trace resolves the scheme's selected path from src to dst, verifying the
// forwarding tables deliver it.
func Trace(t *Tree, s Scheme, src, dst NodeID) (Path, error) {
	return core.Trace(t, s, src, dst)
}

// AllPaths enumerates the distinct routes a source can name to a destination
// through the destination's LID set.
func AllPaths(t *Tree, s Scheme, src, dst NodeID) ([]Path, error) {
	return core.AllPaths(t, s, src, dst)
}

// Flow, LoadReport and LinkLoad expose the static per-link load analysis.
type (
	// Flow is one traffic-matrix entry for LinkLoad.
	Flow = traffic.Flow
	// LoadReport summarizes the inter-switch link loads a traffic matrix
	// induces on a subnet's configured tables.
	LoadReport = verify.QualityReport
)

// LinkLoad traces every flow through the subnet's forwarding tables, under
// the scheme's path selection, and accumulates directed inter-switch link
// loads — the paper's congestion argument without simulation. Self-flows
// are skipped; a nil matrix traces nothing.
func LinkLoad(sn *Subnet, flows []Flow) (*LoadReport, error) {
	if flows == nil {
		flows = []Flow{} // nil would select verify's all-to-all default
	}
	rep, err := verify.Run(verify.FromSubnet(sn), verify.Options{Flows: flows})
	if err != nil {
		return nil, err
	}
	return &rep.Stats.Quality[0], nil
}

// AllToOne builds the all-sources-to-one-destination traffic matrix.
func AllToOne(t *Tree, dst NodeID) []Flow { return traffic.AllToOne(t, dst) }

// PathPlan is a profile-guided path assignment produced by OptimizePaths;
// simulate it by setting SimConfig.PathSelect to SelectPlan(plan).
type PathPlan = core.PathPlan

// OptimizePaths computes, for a known traffic matrix, the MLID LID offsets
// that minimize the maximum inter-switch link load (greedy min-max over
// shortest paths) — an extension of the paper's rank-based selection for
// skewed workloads.
func OptimizePaths(t *Tree, flows []Flow) (*PathPlan, error) {
	return core.OptimizePaths(t, core.NewMLID(), flows)
}

// FaultSet records failed links for fault-avoiding path selection.
type FaultSet = core.FaultSet

// NewFaultSet returns an empty fault set.
func NewFaultSet() *FaultSet { return core.NewFaultSet() }

// SelectDLID picks a destination LID whose path avoids the fault set,
// exercising LMC multipath failover (an extension beyond the paper).
func SelectDLID(t *Tree, s Scheme, src, dst NodeID, faults *FaultSet) (LID, Path, bool) {
	return core.SelectDLID(t, s, src, dst, faults)
}

// BrokenEntry names a forwarding entry RepairSubnet could not fix locally.
type BrokenEntry = core.BrokenEntry

// RepairSubnet rewrites forwarding tables around failed links, remapping
// ascending entries to live up-ports (always safe in an m-port n-tree) and
// reporting descending entries, which have no local alternative, as broken.
func RepairSubnet(sn *Subnet, faults *FaultSet) (remapped int, broken []BrokenEntry, err error) {
	return core.RepairSubnet(sn, faults)
}

// RepairEntry is one remapped forwarding entry of an incremental repair.
type RepairEntry = core.RepairEntry

// SwitchDelta is one switch's forwarding-table delta from RepairIncremental.
type SwitchDelta = core.SwitchDelta

// RepairState is the persistent incremental-repair state over one subnet:
// the subnet's port-to-LIDs reverse index, shared by every state on it,
// plus the current repair overlay.
// RepairIncremental recomputes only the switches a fault-set change dirties
// and returns the exact entry deltas, making per-event repair proportional
// to the change rather than to the LID space — the control-plane hot path
// the simulator's subnet managers run on.
type RepairState = core.RepairState

// NewRepairState starts incremental-repair state over a configured subnet's
// pristine tables; the first state on a subnet builds its reverse index.
func NewRepairState(sn *Subnet) *RepairState { return core.NewRepairState(sn) }

// TraceSubnet walks the subnet's programmed forwarding tables from src for
// the given DLID — the ground truth for repaired or modified tables.
func TraceSubnet(sn *Subnet, src NodeID, dlid LID) (Path, error) {
	return core.TraceSubnet(sn, src, dlid)
}

// DeadlockReport is the outcome of a channel-dependency analysis.
type DeadlockReport struct {
	// Channels and Dependencies count the graph's size.
	Channels, Dependencies int
	// Cycle, when non-nil, lists a dependency cycle's channels in order —
	// a potential deadlock under blocking flow control.
	Cycle []string
}

// Free reports whether no cycle was found.
func (r *DeadlockReport) Free() bool { return len(r.Cycle) == 0 }

// CheckDeadlockFree builds the exact channel-dependency graph induced by
// the subnet's forwarding tables and searches it for cycles (Dally-Seitz).
// It is the static verifier's credit-loop proof for one virtual lane; the
// reported cycle is the verifier's shortest witness. Tables that fail to
// route an assigned DLID (an unprogrammed entry, a route off the fabric, a
// forwarding loop) are an error, not a report.
func CheckDeadlockFree(sn *Subnet) (*DeadlockReport, error) {
	rep, err := verify.Run(verify.FromSubnet(sn), verify.Options{SkipQuality: true})
	if err != nil {
		return nil, err
	}
	out := &DeadlockReport{Channels: rep.Stats.Channels, Dependencies: rep.Stats.Dependencies}
	for _, f := range rep.Findings {
		switch {
		case f.Analyzer == "deadlock":
			out.Cycle = f.Witness
		case f.Severity == verify.Error:
			return nil, fmt.Errorf("mlid: deadlock check: %s", f)
		}
	}
	return out, nil
}

// FamilyStats summarizes an interconnect family instance for hardware-cost
// comparison; see Tree.FamilyStats and Tree.CompareWithKaryNTree.
type FamilyStats = topology.FamilyStats

// KaryNTreeStats computes the metrics of the k-ary n-tree (the paper's
// reference [10]) analytically.
func KaryNTreeStats(k, n int) (FamilyStats, error) { return topology.KaryNTreeStats(k, n) }

// FormatFamilyComparison renders family stats side by side.
func FormatFamilyComparison(stats ...FamilyStats) string {
	return topology.FormatComparison(stats...)
}

// Pattern selects packet destinations during simulation.
type Pattern = traffic.Pattern

// UniformTraffic returns the paper's uniform pattern over the node count.
func UniformTraffic(nodes int) Pattern { return traffic.Uniform{Nodes: nodes} }

// CentricTraffic returns the paper's hotspot pattern: each packet goes to
// the hotspot with the given probability (the paper uses 0.5), else to a
// uniformly random node.
func CentricTraffic(nodes, hotspot int, fraction float64) Pattern {
	return traffic.Centric{Nodes: nodes, Hotspot: hotspot, Fraction: fraction}
}

// MultiHotspotTraffic spreads the concentrated fraction over several
// hotspot destinations.
func MultiHotspotTraffic(nodes int, hotspots []int, fraction float64) Pattern {
	return traffic.MultiHotspot{Nodes: nodes, Hotspots: hotspots, Fraction: fraction}
}

// LocalTraffic biases destinations toward the source's own leaf switch.
func LocalTraffic(nodes, leafSize int, locality float64) Pattern {
	return traffic.Local{Nodes: nodes, LeafSize: leafSize, Locality: locality}
}

// PatternByName resolves "uniform", "centric", "bitcomplement",
// "bitreversal" or "shift".
func PatternByName(name string, nodes, hotspot int) (Pattern, error) {
	return traffic.ByName(name, nodes, hotspot)
}

// Simulation types, re-exported from the simulator.
type (
	// SimConfig configures one simulation run; zero-valued optional fields
	// take the paper's model constants.
	SimConfig = sim.Config
	// SimResult reports one run's measurements.
	SimResult = sim.Result
	// ReceptionModel selects how destinations consume packets.
	ReceptionModel = sim.ReceptionModel
	// Selector is the pluggable source-side path-selection policy
	// (SimConfig.PathSelect); see SelectorByName for the built-in family.
	Selector = sim.Selector
	// SelectContext is the per-packet input a Selector chooses from.
	SelectContext = sim.SelectContext
	// CongestionView is the first-hop port occupancy/credit window a
	// Selector may consult.
	CongestionView = sim.CongestionView
	// VLPolicy selects the source-side virtual-lane mapping.
	VLPolicy = sim.VLPolicy
	// SwitchingMode selects the switch forwarding discipline.
	SwitchingMode = sim.SwitchingMode
)

// Reception models (see DESIGN.md, "Reception model").
const (
	// ReceptionIdeal consumes packets at the destination leaf switch — the
	// paper-faithful default.
	ReceptionIdeal = sim.ReceptionIdeal
	// ReceptionLink models the terminal link like any other shared link.
	ReceptionLink = sim.ReceptionLink
)

// Path-selection policies (SimConfig.PathSelect; nil defaults to SelectRank).

// SelectRank is the paper's rank-based selection (default).
func SelectRank() Selector { return sim.SelectRank() }

// SelectRandom draws a random usable LID offset per packet (ablation).
func SelectRandom() Selector { return sim.SelectRandom() }

// SelectFlowSpray pins each flow to one randomly drawn LID at flow start.
func SelectFlowSpray() Selector { return sim.SelectFlowSpray() }

// SelectAdaptive picks the least-occupied upward LID with hysteresis.
func SelectAdaptive() Selector { return sim.SelectAdaptive() }

// SelectPktSpray sprays every packet round-robin over the usable LIDs.
func SelectPktSpray() Selector { return sim.SelectPktSpray() }

// SelectPlan follows a profile-guided path plan (OptimizePaths) for the flows
// it plans and the rank selection for the rest, failing over off dead paths
// like SelectRank.
func SelectPlan(plan *PathPlan) Selector { return sim.SelectPlan(plan) }

// SelectorByName resolves "rank", "random", "flowspray", "adaptive" or
// "pktspray".
func SelectorByName(name string) (Selector, error) { return sim.SelectorByName(name) }

// SelectorNames lists the built-in selectors, sorted.
func SelectorNames() []string { return sim.SelectorNames() }

// Virtual-lane mapping policies.
const (
	// VLRoundRobin distributes packets over data VLs per source (default).
	VLRoundRobin = sim.VLRoundRobin
	// VLByDLID pins packets to VL = DLID mod #VLs (ablation).
	VLByDLID = sim.VLByDLID
)

// Switching modes.
const (
	// SwitchingVCT is virtual cut-through, the paper's model (default).
	SwitchingVCT = sim.SwitchingVCT
	// SwitchingSAF is store-and-forward (ablation).
	SwitchingSAF = sim.SwitchingSAF
)

// Simulate executes one discrete-event simulation run.
func Simulate(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// Live fault-injection types (SimConfig.FaultPlan): link failures scheduled
// on the simulation clock, with a subnet-manager recovery model (trap
// latency, staged forwarding-table updates, fault-avoiding reselection).
type (
	// FaultPlan schedules link failures inside a running simulation.
	FaultPlan = sim.FaultPlan
	// LinkFault is one scheduled bidirectional link outage.
	LinkFault = sim.LinkFault
	// SwitchFault is one scheduled whole-switch outage: every port goes
	// down atomically at the same instant.
	SwitchFault = sim.SwitchFault
	// SimSeriesPoint is one time bin of a run's delivery/drop series.
	SimSeriesPoint = sim.SeriesPoint
	// TransportConfig enables the reliable end-to-end transport
	// (SimConfig.Transport): PSN sequencing, ACK/NAK on a management VL,
	// and timeout retransmission with exponential backoff.
	TransportConfig = sim.TransportConfig
	// InBandSMConfig (FaultPlan.InBandSM) replaces the oracle subnet
	// manager with an in-band one: traps and LFT-update SMPs travel the
	// management VL through the live forwarding tables (and are lost when
	// their path crosses a dead link), a periodic sweep diffs discovered
	// port state against the SM's view, SMP transactions retry with capped
	// exponential backoff, a standby SM takes over when the master's
	// attachment dies, and unreachable partitions degrade gracefully.
	InBandSMConfig = sim.InBandSMConfig
)

// Batch (closed-workload) simulation types.
type (
	// BatchResult reports a closed-workload run.
	BatchResult = sim.BatchResult
	// Message is one batch transfer.
	Message = sim.Message
)

// SimulateBatch runs the closed workload cfg.Messages (e.g. a collective
// exchange) until the fabric drains and returns its makespan. cfg.MeasureNs
// is the drain deadline; the open-loop and fault fields must stay unset.
func SimulateBatch(cfg SimConfig) (BatchResult, error) { return sim.RunBatch(cfg) }

// AllToAllMessages builds the staggered all-to-all personalized exchange.
func AllToAllMessages(t *Tree, bytesPer int) []Message { return sim.AllToAll(t, bytesPer) }

// GatherMessages builds the all-to-one collective toward root.
func GatherMessages(t *Tree, root NodeID, bytesPer int) []Message {
	return sim.Gather(t, root, bytesPer)
}

// Evaluation harness types.
type (
	// EvalNetwork names one m-port n-tree configuration.
	EvalNetwork = experiment.Network
	// EvalFigureSpec describes one latency-vs-accepted-traffic figure.
	EvalFigureSpec = experiment.FigureSpec
	// EvalFigure is a completed figure with measured curves.
	EvalFigure = experiment.Figure
	// EvalTable1Row is one row of the reproduced Table 1.
	EvalTable1Row = experiment.Table1Row
	// Curve is a labelled series of measured operating points.
	Curve = stats.Curve
	// CurvePoint is one measured operating point.
	CurvePoint = stats.Point
	// Histogram is a log-scaled latency histogram usable as a
	// SimConfig.LatencyHist sink.
	Histogram = stats.Histogram
	// PortStat summarizes one directed link's traffic over a run.
	PortStat = sim.PortStat
)

// NewHistogram returns a latency histogram whose first bucket starts at
// base nanoseconds, with the given number of doubling buckets.
func NewHistogram(base float64, buckets int) *Histogram {
	return stats.NewHistogram(base, buckets)
}

// EvalFigures returns the specs of the paper's eight evaluation figures at
// full fidelity; call Run on a spec to execute its sweep.
func EvalFigures() []EvalFigureSpec { return experiment.Figures() }

// EvalQuickFigures returns reduced-cost variants of the eight figures.
func EvalQuickFigures() []EvalFigureSpec { return experiment.QuickFigures() }

// EvalFigureByID finds a figure spec by ID ("F3") or short name ("u-16x2").
func EvalFigureByID(name string) (EvalFigureSpec, error) { return experiment.FigureByID(name) }

// EvalTable1 computes the network-configuration table for the given
// networks (use EvalNetworks() for the paper's four).
func EvalTable1(nets []EvalNetwork) ([]EvalTable1Row, error) { return experiment.Table1(nets) }

// EvalNetworks returns the four evaluation network sizes.
func EvalNetworks() []EvalNetwork { return experiment.PaperNetworks() }

// Observation is one of the paper's evaluation claims checked against
// measured figures.
type Observation = experiment.Observation

// CheckObservations evaluates the paper's Observations 1-5 against
// completed figures.
func CheckObservations(figs []EvalFigure) []Observation {
	return experiment.CheckObservations(figs)
}

// EvalReport renders a markdown reproduction report from figures and
// observation verdicts.
func EvalReport(figs []EvalFigure, obs []Observation) (string, error) {
	return experiment.Report(figs, obs)
}
