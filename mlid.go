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
	Flow = core.Flow
	// LoadReport summarizes per-link loads induced by a traffic matrix.
	LoadReport = core.LoadReport
)

// LinkLoad traces every flow under the scheme and accumulates directed link
// loads — the paper's congestion argument without simulation.
func LinkLoad(t *Tree, s Scheme, flows []Flow) (*LoadReport, error) {
	return core.LinkLoad(t, s, flows)
}

// AllToOne builds the all-sources-to-one-destination traffic matrix.
func AllToOne(t *Tree, dst NodeID) []Flow { return core.AllToOne(t, dst) }

// PathPlan is a profile-guided path assignment produced by OptimizePaths;
// feed its DLID method to SimConfig.DLIDFunc or BatchConfig.DLIDFunc.
type PathPlan = core.PathPlan

// OptimizePaths computes, for a known traffic matrix, the MLID LID offsets
// that minimize the maximum link load (greedy min-max over shortest paths)
// — an extension of the paper's rank-based selection for skewed workloads.
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

// RepairState is the persistent incremental-repair state over one subnet: a
// configure-time port-to-LIDs reverse index plus the current repair overlay.
// RepairIncremental recomputes only the switches a fault-set change dirties
// and returns the exact entry deltas, making per-event repair proportional
// to the change rather than to the LID space — the control-plane hot path
// the simulator's subnet managers run on.
type RepairState = core.RepairState

// NewRepairState builds incremental-repair state (including the reverse
// index) over a configured subnet's pristine tables.
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
	// BatchConfig describes a closed workload: all messages enqueued at
	// time zero, measured by makespan.
	BatchConfig = sim.BatchConfig
	// BatchResult reports a closed-workload run.
	BatchResult = sim.BatchResult
	// Message is one batch transfer.
	Message = sim.Message
)

// SimulateBatch runs a closed workload (e.g. a collective exchange) until
// the fabric drains and returns its makespan.
func SimulateBatch(bc BatchConfig) (BatchResult, error) { return sim.RunBatch(bc) }

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

// Recovery-transient study types: how each scheme rides through a live link
// failure (see SimConfig.FaultPlan and EXPERIMENTS.md).
type (
	// EvalRecoverySpec configures the recovery-transient study.
	EvalRecoverySpec = experiment.RecoverySpec
	// EvalRecoveryRow is one (scheme, VL count) outcome of the study.
	EvalRecoveryRow = experiment.RecoveryRow
)

// EvalRecoverySpecDefault returns the full-fidelity recovery study spec.
func EvalRecoverySpecDefault() EvalRecoverySpec { return experiment.RecoveryStudySpec() }

// EvalRecoverySpecQuick returns the reduced-cost recovery study spec.
func EvalRecoverySpecQuick() EvalRecoverySpec { return experiment.QuickRecoverySpec() }

// EvalRecoveryStudy runs the recovery transient for both schemes across the
// spec's VL counts.
func EvalRecoveryStudy(spec EvalRecoverySpec) ([]EvalRecoveryRow, error) {
	return experiment.RecoveryStudy(spec)
}

// FormatRecovery renders recovery rows as a markdown table.
func FormatRecovery(rows []EvalRecoveryRow) string { return experiment.FormatRecovery(rows) }

// RecoveryCSV renders recovery rows in long form.
func RecoveryCSV(rows []EvalRecoveryRow) string { return experiment.RecoveryCSV(rows) }

// RecoverySeriesCSV renders every recovery row's per-interval transient —
// the recovery-tail curves — in long form.
func RecoverySeriesCSV(rows []EvalRecoveryRow) string { return experiment.RecoverySeriesCSV(rows) }

// Chaos-campaign types: seeded link-flap and switch-kill schedules run with
// the reliable transport on, SLID versus MLID on identical schedules (see
// SimConfig.Transport and EXPERIMENTS.md).
type (
	// EvalChaosSpec configures a seeded chaos campaign.
	EvalChaosSpec = experiment.ChaosSpec
	// EvalChaosRow is one (scheme, fault rate) campaign outcome.
	EvalChaosRow = experiment.ChaosRow
)

// EvalChaosSpecDefault returns the full-fidelity chaos campaign spec.
func EvalChaosSpecDefault() EvalChaosSpec { return experiment.ChaosStudySpec() }

// EvalChaosSpecQuick returns the reduced-cost chaos campaign spec.
func EvalChaosSpecQuick() EvalChaosSpec { return experiment.QuickChaosSpec() }

// EvalChaosStudy runs the campaign for both schemes across the spec's fault
// rates, each pair on an identical seeded schedule, and verifies packet
// conservation (generated = delivered + failed + in flight) for every run.
func EvalChaosStudy(spec EvalChaosSpec) ([]EvalChaosRow, error) {
	return experiment.ChaosStudy(spec)
}

// FormatChaos renders chaos rows as a markdown table.
func FormatChaos(rows []EvalChaosRow) string { return experiment.FormatChaos(rows) }

// ChaosCSV renders chaos rows in long form.
func ChaosCSV(rows []EvalChaosRow) string { return experiment.ChaosCSV(rows) }

// Path-selection family study types: every pluggable selector (SelectRank,
// SelectRandom, SelectFlowSpray, SelectAdaptive, SelectPktSpray) over the
// same MLID fabric on policy-separating workloads, with an optional
// degraded-fabric axis (see SimConfig.PathSelect and EXPERIMENTS.md).
type (
	// EvalAdaptiveSpec configures the path-selection family study.
	EvalAdaptiveSpec = experiment.AdaptiveSpec
	// EvalAdaptiveRow is one (workload, selector, faulted?) measurement.
	EvalAdaptiveRow = experiment.AdaptiveRow
)

// EvalAdaptiveSpecDefault returns the full-fidelity family study spec.
func EvalAdaptiveSpecDefault() EvalAdaptiveSpec { return experiment.AdaptiveStudySpec() }

// EvalAdaptiveSpecQuick returns the reduced-cost family study spec.
func EvalAdaptiveSpecQuick() EvalAdaptiveSpec { return experiment.QuickAdaptiveSpec() }

// EvalAdaptiveStudy runs the family study: every selector of a (workload,
// variant) block sees the identical subnet, traffic, seed, and fault
// schedule, and the runner asserts packet conservation for every run.
func EvalAdaptiveStudy(spec EvalAdaptiveSpec) ([]EvalAdaptiveRow, error) {
	return experiment.AdaptiveStudy(spec)
}

// FormatAdaptive renders family-study rows as a markdown table.
func FormatAdaptive(rows []EvalAdaptiveRow) string { return experiment.FormatAdaptive(rows) }

// AdaptiveCSV renders family-study rows in long form.
func AdaptiveCSV(rows []EvalAdaptiveRow) string { return experiment.AdaptiveCSV(rows) }

// Degraded-fabric quality study types: at each fault rate a seeded link
// sample fails, and the study records both the static ibverify quality view
// of the repaired tables and a full simulation of the same outage (see
// internal/verify and EXPERIMENTS.md).
type (
	// EvalDegradedSpec configures the degraded-fabric quality study.
	EvalDegradedSpec = experiment.DegradedSpec
	// EvalDegradedRow is one (scheme, fault rate) outcome of the study.
	EvalDegradedRow = experiment.DegradedRow
)

// EvalDegradedSpecDefault returns the full-fidelity degraded study spec.
func EvalDegradedSpecDefault() EvalDegradedSpec { return experiment.DegradedStudySpec() }

// EvalDegradedSpecQuick returns the reduced-cost degraded study spec.
func EvalDegradedSpecQuick() EvalDegradedSpec { return experiment.QuickDegradedSpec() }

// EvalDegradedStudy runs the degraded-fabric sweep for both schemes across
// the spec's fault rates, each pair on an identical link sample.
func EvalDegradedStudy(spec EvalDegradedSpec) ([]EvalDegradedRow, error) {
	return experiment.DegradedStudy(spec)
}

// DegradedOrderingConsistent checks that the static predicted-accepted
// ranking of the schemes matches the simulated accepted-throughput ordering
// at every fault rate.
func DegradedOrderingConsistent(rows []EvalDegradedRow) error {
	return experiment.DegradedOrderingConsistent(rows)
}

// FormatDegraded renders degraded rows as a markdown table.
func FormatDegraded(rows []EvalDegradedRow) string { return experiment.FormatDegraded(rows) }

// DegradedCSV renders degraded rows in long form.
func DegradedCSV(rows []EvalDegradedRow) string { return experiment.DegradedCSV(rows) }

// In-band subnet-management study types: the same fault schedule — a spine
// link loss, then an outage of the master SM's own switch — replayed under
// the oracle SM and the in-band SM at increasing trap-loss rates, per
// routing scheme (see FaultPlan.InBandSM and EXPERIMENTS.md).
type (
	// EvalSMSpec configures the in-band SM study.
	EvalSMSpec = experiment.SMSpec
	// EvalSMRow is one (scheme, SM mode) outcome of the study.
	EvalSMRow = experiment.SMRow
)

// EvalSMSpecDefault returns the full-fidelity in-band SM study spec.
func EvalSMSpecDefault() EvalSMSpec { return experiment.SMStudySpec() }

// EvalSMSpecQuick returns the reduced-cost in-band SM study spec.
func EvalSMSpecQuick() EvalSMSpec { return experiment.QuickSMSpec() }

// EvalSMStudy runs the in-band SM study and enforces its invariants on
// every run: exact packet conservation (generated = delivered + failed +
// unreachable-degraded + in-flight), one sticky failover per in-band run,
// and sweep-driven recovery of the traps the master outage silenced.
func EvalSMStudy(spec EvalSMSpec) ([]EvalSMRow, error) { return experiment.SMStudy(spec) }

// FormatSM renders in-band SM study rows as a markdown table.
func FormatSM(rows []EvalSMRow) string { return experiment.FormatSM(rows) }

// SMCSV renders in-band SM study rows in long form.
func SMCSV(rows []EvalSMRow) string { return experiment.SMCSV(rows) }

// SMSeriesCSV renders every SM study row's per-interval recovery tail in
// long form.
func SMSeriesCSV(rows []EvalSMRow) string { return experiment.SMSeriesCSV(rows) }

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
