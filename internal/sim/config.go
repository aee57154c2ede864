package sim

import (
	"fmt"
	"math"

	"mlid/internal/ib"
	"mlid/internal/stats"
	"mlid/internal/traffic"
)

// Model constants, taken from the paper's simulator settings. The three
// timing constants hold for every run; the packet size and buffer depth are
// the defaults of their Config fields.
const (
	// DefaultFlyNs is the flying time of a packet between devices
	// (endnode-to-switch and switch-to-switch).
	DefaultFlyNs Time = 10
	// DefaultRouteNs is the routing time of a packet from an input port to
	// an output port of the crossbar (forwarding table lookup, arbitration
	// and message startup).
	DefaultRouteNs Time = 100
	// DefaultNsPerByte is the byte injection interval of a 4X link
	// configuration (~8 Gbit/s of data): one byte per nanosecond.
	DefaultNsPerByte Time = 1
	// DefaultPacketSize is the simulated packet size in bytes.
	DefaultPacketSize = 256
	// DefaultBufPackets is the per-virtual-lane input/output buffer
	// capacity in packets (the paper's buffers hold one packet).
	DefaultBufPackets = 1
)

// ReceptionModel selects how destination endnodes consume packets.
type ReceptionModel int

const (
	// ReceptionIdeal consumes packets at the destination's leaf switch as
	// fast as they are routed: the final switch-to-node hop adds its flying
	// and serialization time to latency but is never a shared bottleneck.
	// This matches the behaviour the paper's results imply: its 50%-centric
	// figures show MLID far ahead of SLID, which is only possible when the
	// destination can drain its multiple descending paths concurrently —
	// with a single contended terminal link, every scheme is pinned to the
	// same hotspot sink rate (see DESIGN.md, "Reception model").
	ReceptionIdeal ReceptionModel = iota
	// ReceptionLink models the switch-to-node link like any other: 1 B/ns,
	// credit flow control, shared by all traffic to that node.
	ReceptionLink
)

// VLPolicy chooses how sources map packets onto data virtual lanes.
type VLPolicy int

const (
	// VLRoundRobin distributes a source's packets over the data VLs in
	// round-robin order — the utilization-oriented policy of the VL
	// literature the paper builds on, and the default. It treats both
	// routing schemes symmetrically: every VL carries every flow.
	VLRoundRobin VLPolicy = iota
	// VLByDLID statically maps a packet to VL = DLID mod #VLs, a
	// destination-pinned (SL-to-VL style) mapping. Under a hotspot this
	// isolates the single-LID scheme's hotspot traffic on one lane, an
	// asymmetry worth studying but not the paper's setting (its
	// observations have MLID ahead at every VL count).
	VLByDLID
)

// SwitchingMode selects the switch forwarding discipline.
type SwitchingMode int

const (
	// SwitchingVCT is virtual cut-through, the paper's model: a packet's
	// head can leave a switch before its tail has arrived.
	SwitchingVCT SwitchingMode = iota
	// SwitchingSAF is store-and-forward: a switch receives the whole
	// packet before routing it, adding one serialization time per hop.
	// Provided as an ablation of the paper's cut-through choice.
	SwitchingSAF
)

// Config describes one simulation run. Its workload is exactly one of an
// open-loop traffic Pattern, run by Run, or a closed list of Messages, run by
// RunBatch; every other field describes the fabric, the model and what to
// record, and RunBatch rejects the ones a closed workload cannot honour. The
// link and switch timing is the paper's and not configurable: DefaultFlyNs
// per link flight, DefaultRouteNs per crossbar routing decision and
// DefaultNsPerByte of serialization.
type Config struct {
	// Subnet is the configured subnet (topology + LID assignment + LFTs)
	// produced by the subnet manager.
	Subnet *ib.Subnet
	// Pattern selects packet destinations of an open-loop run (Run).
	Pattern traffic.Pattern
	// Messages is a closed workload (RunBatch): every message's packets are
	// enqueued at time zero and the run lasts until the fabric drains.
	Messages []Message
	// DataVLs is the number of data virtual lanes (the paper simulates
	// 1, 2 and 4). Each VL of a port has its own input and output buffer.
	DataVLs int
	// PacketSize is the packet length in bytes.
	PacketSize int
	// BufPackets is the capacity, in packets, of each per-VL buffer.
	BufPackets int
	// OfferedLoad is the per-node injection rate in bytes/ns (1.0 is the
	// full link rate). The generator spaces packets deterministically at
	// PacketSize/OfferedLoad nanoseconds, with a random per-node phase.
	OfferedLoad float64
	// WarmupNs and MeasureNs delimit the measurement window: statistics
	// cover deliveries in [WarmupNs, WarmupNs+MeasureNs). Generation stops
	// at the end of the window. The defaults are 50 µs and 200 µs. A closed
	// workload has no warm-up and MeasureNs is its drain deadline, 1e9 ns by
	// default.
	WarmupNs, MeasureNs Time
	// Reception selects the endnode consumption model; the zero value is
	// ReceptionIdeal, the paper-faithful choice.
	Reception ReceptionModel
	// PathSelect selects the source-side multipath policy: any Selector
	// (SelectRank, SelectRandom, SelectFlowSpray, SelectAdaptive,
	// SelectPktSpray, SelectPlan, or a custom implementation). nil is the
	// paper's rank-based selection. Fault reselection (FaultPlan.Reselect)
	// composes with every selector: it filters the candidate offsets to
	// surviving paths, then the selector chooses among them.
	PathSelect Selector
	// VLSelect selects the source-side virtual-lane mapping; the zero
	// value is round-robin.
	VLSelect VLPolicy
	// Switching selects cut-through (default, the paper's model) or
	// store-and-forward.
	Switching SwitchingMode
	// LatencyHist, when non-nil, receives every measured delivery latency
	// (generation to tail, window deliveries only).
	LatencyHist *stats.Histogram
	// CollectPortStats fills Result.PortStats with per-directed-link
	// transmission statistics.
	CollectPortStats bool
	// TracePackets records the hop-by-hop timeline of the first N generated
	// packets into Result.Traces.
	TracePackets int
	// SeriesIntervalNs, when positive, bins deliveries over the whole run
	// into intervals of this many nanoseconds and fills Result.Series — the
	// transient view (congestion onset, drain) the steady-state window
	// averages away.
	SeriesIntervalNs Time
	// FaultPlan, when non-nil, schedules live link failures during the run
	// and enables the subnet-manager recovery model (trap latency, staged
	// forwarding-table updates, optional fault-avoiding source reselection).
	// A nil plan and an empty plan behave identically. See FaultPlan.
	FaultPlan *FaultPlan
	// Transport, when non-nil, enables the reliable end-to-end transport
	// layer: per-flow packet sequence numbers, receiver ACK/NAK on a
	// dedicated management VL, and sender timeout-retransmission with
	// exponential backoff. Off (nil) by default; a disabled run is
	// bit-for-bit identical to one built before the transport existed.
	// See TransportConfig.
	Transport *TransportConfig
	// VerifyEpochs re-runs the static verifier (internal/verify) over the
	// live forwarding tables at every subnet-manager epoch of a FaultPlan
	// run — after each trap sweep and each applied staged table update —
	// and additionally cross-checks the compiled forwarding rows against
	// the live tables. Any error-severity finding (a loop, credit-cycle,
	// dead end, or misdelivery the recorded dead links do not explain)
	// fails the run. Cold path: it costs nothing per packet and does not
	// perturb results. Without a FaultPlan no epochs occur and the flag is
	// inert. See Result.VerifiedEpochs.
	VerifyEpochs bool
	// Seed makes the run reproducible.
	Seed int64
	// Shards is a compatibility field: every run uses the one event
	// engine. 0 and 1 are accepted; any other value fails validation.
	//
	// Deprecated: the sharded engine was removed (see DESIGN.md, "One event
	// engine"). Leave Shards unset.
	Shards int
	// HeapOnlyScheduler disables the engine's calendar-queue fast path so
	// every event takes the fallback heap. Results must not depend on it:
	// it exists so determinism suites (this package's and the chaos soak)
	// can prove both scheduler paths produce bit-identical results.
	HeapOnlyScheduler bool
}

// SeriesPoint is one time bin of a run's delivery series.
type SeriesPoint struct {
	StartNs Time
	// Accepted is the delivered traffic in the bin, bytes/ns per node.
	Accepted float64
	// MeanLatencyNs averages the bin's delivery latencies (0 if none).
	MeanLatencyNs float64
	Delivered     int64
	// Dropped counts packets lost at dead links in the bin (FaultPlan runs).
	Dropped int64
	// Reroutes counts packets steered off a faulty path by source
	// reselection in the bin (FaultPlan runs with Reselect).
	Reroutes int64
	// Retransmits counts retransmissions injected in the bin; Failed the
	// packets whose retry budget ran out in the bin (Transport runs).
	Retransmits, Failed int64
	// Unreachable counts packets written off by partition-aware degradation
	// in the bin (FaultPlan runs with InBandSM and Transport).
	Unreachable int64
}

// TraceHop is one switch traversal in a packet trace.
type TraceHop struct {
	Switch int32
	// ArriveNs is the head arrival at the switch; DepartNs the start of the
	// next transmission (0 if the packet never left).
	ArriveNs, DepartNs Time
}

// PacketTrace is the recorded life of one packet.
type PacketTrace struct {
	Seq       uint64
	Src, Dst  int32
	DLID      uint16
	VL        uint8
	GenNs     Time
	InjectNs  Time
	DeliverNs Time // 0 if still in flight when the run ended
	// DroppedNs is the time the packet died at a dead link (FaultPlan runs);
	// 0 if it was never dropped.
	DroppedNs Time
	Hops      []TraceHop
}

// PortStat summarizes one directed link's transmissions over a run.
type PortStat struct {
	// IsNode marks an endnode injection link; otherwise Switch/Port name
	// the transmitting switch side (abstract port).
	IsNode  bool
	Node    int32
	Switch  int32
	Port    int
	BusyNs  Time
	Packets int64
	// Utilization is BusyNs over the run length.
	Utilization float64
}

// withDefaults fills zero fields with the paper's constants.
func (c Config) withDefaults() Config {
	if c.DataVLs == 0 {
		c.DataVLs = 1
	}
	if c.PacketSize == 0 {
		c.PacketSize = DefaultPacketSize
	}
	if c.BufPackets == 0 {
		c.BufPackets = DefaultBufPackets
	}
	if len(c.Messages) > 0 {
		// A closed workload is measured from time zero until it drains.
		if c.MeasureNs == 0 {
			c.MeasureNs = 1_000_000_000
		}
	} else {
		if c.WarmupNs == 0 {
			c.WarmupNs = 50_000
		}
		if c.MeasureNs == 0 {
			c.MeasureNs = 200_000
		}
	}
	if c.FaultPlan != nil {
		plan := c.FaultPlan.withDefaults()
		c.FaultPlan = &plan
	}
	if c.Transport != nil {
		tc := c.Transport.withDefaults()
		c.Transport = &tc
	}
	return c
}

// validate rejects inconsistent configurations.
func (c Config) validate() error {
	if c.Subnet == nil {
		return fmt.Errorf("sim: Config.Subnet is required")
	}
	if c.Pattern == nil && len(c.Messages) == 0 {
		return fmt.Errorf("sim: Config.Pattern is required")
	}
	if c.Shards != 0 && c.Shards != 1 {
		return fmt.Errorf("sim: Shards=%d: the sharded engine was removed; every run uses the one event engine, so leave Shards at 0 or 1", c.Shards)
	}
	if c.DataVLs < 1 || c.DataVLs > 15 {
		return fmt.Errorf("sim: DataVLs must be 1..15 (IBA allows up to 15 data VLs), got %d", c.DataVLs)
	}
	if c.PacketSize < 1 {
		return fmt.Errorf("sim: PacketSize must be positive, got %d", c.PacketSize)
	}
	if c.BufPackets < 1 {
		return fmt.Errorf("sim: BufPackets must be >= 1, got %d", c.BufPackets)
	}
	if c.Pattern != nil {
		if !(c.OfferedLoad > 0) {
			return fmt.Errorf("sim: OfferedLoad must be positive, got %v", c.OfferedLoad)
		}
		if !finite(c.OfferedLoad) {
			return fmt.Errorf("sim: OfferedLoad must be finite, got %v", c.OfferedLoad)
		}
	}
	if c.MeasureNs <= 0 || c.WarmupNs < 0 {
		return fmt.Errorf("sim: bad window: warmup %d, measure %d", c.WarmupNs, c.MeasureNs)
	}
	if c.Reception != ReceptionIdeal && c.Reception != ReceptionLink {
		return fmt.Errorf("sim: unknown reception model %d", c.Reception)
	}
	if c.PathSelect != nil && c.PathSelect.NeedsFlowState() {
		if n := c.Subnet.Tree.Nodes(); n > 4096 {
			return fmt.Errorf("sim: selector %q tracks per-(src,dst) flow state and supports fabrics up to 4096 nodes, got %d", c.PathSelect.Name(), n)
		}
	}
	if c.VLSelect != VLRoundRobin && c.VLSelect != VLByDLID {
		return fmt.Errorf("sim: unknown VL policy %d", c.VLSelect)
	}
	if c.Switching != SwitchingVCT && c.Switching != SwitchingSAF {
		return fmt.Errorf("sim: unknown switching mode %d", c.Switching)
	}
	if c.FaultPlan != nil {
		if err := c.FaultPlan.validate(c.Subnet.Tree); err != nil {
			return err
		}
	}
	if c.Transport != nil {
		if err := c.Transport.validate(); err != nil {
			return err
		}
		if n := c.Subnet.Tree.Nodes(); n > 1024 {
			return fmt.Errorf("sim: Transport tracks per-(src,dst) flow state and supports fabrics up to 1024 nodes, got %d", n)
		}
		if c.DataVLs > 14 {
			return fmt.Errorf("sim: Transport claims one management VL on top of DataVLs; DataVLs must be <= 14, got %d", c.DataVLs)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite. Range checks alone
// let NaN through, since every comparison with it is false.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Result reports one run's outcome.
type Result struct {
	// OfferedLoad echoes the configured injection rate (bytes/ns/node).
	OfferedLoad float64
	// Accepted is the delivered traffic within the measurement window, in
	// bytes/ns per node — the paper's x-axis.
	Accepted float64
	// MeanLatencyNs and P99LatencyNs summarize generation-to-delivery
	// latency of packets delivered within the window — the paper's y-axis.
	MeanLatencyNs, P99LatencyNs, MaxLatencyNs float64
	// MeanNetLatencyNs is the mean injection-to-delivery latency: the
	// time inside the fabric, excluding source queueing.
	MeanNetLatencyNs float64
	// MaxLinkUtilization and MeanLinkUtilization summarize the fraction of
	// the run each directed switch-output link spent transmitting
	// (endnode injection links excluded from Mean; Max covers all).
	MaxLinkUtilization, MeanLinkUtilization float64
	// DeliveredWindow / GeneratedWindow count packets inside the window.
	DeliveredWindow, GeneratedWindow int64
	// OutOfOrder counts deliveries that arrived behind a later-generated
	// packet of the same (source, destination) flow — the reordering the
	// IBA's per-path determinism avoids and multipath spreading risks.
	// Tracked for fabrics up to 4096 nodes; -1 means not tracked.
	OutOfOrder int64
	// PortStats carries per-directed-link statistics, busiest first, when
	// Config.CollectPortStats is set.
	PortStats []PortStat
	// Traces carries the recorded packet timelines when Config.TracePackets
	// is positive.
	Traces []*PacketTrace
	// Series carries the delivery time series when
	// Config.SeriesIntervalNs is positive.
	Series []SeriesPoint
	// TotalDelivered / TotalGenerated count packets over the whole run.
	TotalDelivered, TotalGenerated int64
	// InFlightAtEnd = TotalGenerated - TotalDelivered - DroppedTotal:
	// packets still queued or in the fabric when the run stopped.
	InFlightAtEnd int64
	// Events is the number of simulator events processed — typed event
	// records dispatched by the engine loop (generation, routing, arrivals,
	// deliveries, credits, arbitration kicks and buffer releases). The count
	// is deterministic for a configuration and seed, and independent of
	// which scheduler path (calendar queue or fallback heap) carried each
	// event.
	Events int64
	// EndTime is the simulated timestamp the run stopped at.
	EndTime Time
	// Saturated reports whether accepted traffic fell more than 2% below
	// offered traffic, i.e. the operating point is past the knee.
	Saturated bool

	// Fault-injection outcomes; all zero unless Config.FaultPlan ran.

	// DroppedTotal / DroppedWindow count packets lost at dead links over the
	// whole run and inside the measurement window.
	DroppedTotal, DroppedWindow int64
	// DroppedAtDeadLink counts packets a live forwarding table steered onto
	// a dead output port — the fate of the repair's broken descending
	// entries and of every stale entry before the repair lands.
	DroppedAtDeadLink int64
	// DroppedOnDeadLink counts packets that were buffered on, serializing
	// on, or injected into a link when it died.
	DroppedOnDeadLink int64
	// Reroutes counts packets steered off a faulty path by fault-avoiding
	// source reselection (FaultPlan.Reselect).
	Reroutes int64
	// LFTUpdates counts applied per-switch staged table updates;
	// LFTEntriesRewritten the individual entries they rewrote.
	LFTUpdates, LFTEntriesRewritten int64
	// BrokenEntries is the number of irreparable descending entries the SM's
	// last sweep reported (they keep pointing at the dead link and drop).
	BrokenEntries int
	// FirstFaultNs is the first link-down time; LastDropNs the last drop.
	FirstFaultNs, LastDropNs Time
	// RecoveryNs is the SM convergence time: last staged table update
	// applied minus first link failure. Zero when no update was needed.
	RecoveryNs Time
	// VerifiedEpochs counts the static-verifier passes a
	// Config.VerifyEpochs run executed (one per SM epoch), and
	// VerifyWarnings the warning-severity findings they reported, summed
	// over the passes — the dead-link-explained defects of mid-repair
	// tables. Each pass counts only the warnings kept under the verifier's
	// per-analyzer cap (verify.Options.MaxFindings, 64 by default); those
	// past it land in the pass's Stats.Suppressed, not here. Error-severity
	// findings never reach the Result: they fail the run instead.
	VerifiedEpochs, VerifyWarnings int

	// Reliable-transport outcomes; all zero unless Config.Transport ran.

	// P999LatencyNs is the 99.9th-percentile generation-to-delivery latency
	// of window deliveries — the recovery tail retransmissions stretch.
	// (Filled for every run, but only interesting with Transport on.)
	P999LatencyNs float64
	// Retransmits counts retransmission injections; every retransmission
	// re-enters path selection, so an MLID source can steer the retry onto
	// a surviving LID while a SLID source repeats the single path.
	Retransmits int64
	// Failed counts packets whose retry budget ran out and that never
	// reached their destination: the transport gave up and the loss is
	// explicit. (A packet that was delivered but whose every acknowledgment
	// died is abandoned by its sender without being counted here — it is
	// delivered, just unconfirmed.) With Transport on,
	// InFlightAtEnd = TotalGenerated - TotalDelivered - Failed (dropped
	// copies are retried, not lost), and a fully-drained run has
	// InFlightAtEnd == 0: zero silent loss.
	Failed int64
	// DupDeliveries counts copies the receiver discarded as duplicates
	// (late originals after a spurious retransmission, or repeated
	// retransmissions racing their ACKs).
	DupDeliveries int64
	// AcksSent / NaksSent count control packets injected on the management
	// VL; CtrlBytesSent is their total size — the ACK traffic overhead.
	AcksSent, NaksSent int64
	CtrlBytesSent      int64
	// LastRecoveredNs is the delivery time of the last accepted
	// retransmission: the time-to-last-recovered-delivery of the run.
	LastRecoveredNs Time
	// DrainedNs is the post-generation drain horizon the run waited for
	// outstanding retransmissions (TransportConfig.DrainNs after defaults).
	DrainedNs Time

	// In-band subnet management counters (FaultPlan.InBandSM; all zero
	// under the oracle SM).
	//
	// TrapsSent counts raised traps; TrapsLost the ones that died to the
	// loss probability or a broken management path; TrapsDelivered the ones
	// that reached the active SM.
	TrapsSent, TrapsLost, TrapsDelivered int64
	// SMSweeps counts periodic sweep ticks; SweepDetections the sweeps
	// whose port-state diff found knowledge the traps had lost.
	SMSweeps, SweepDetections int64
	// SMPsSent counts LFT-update SMP transmissions (first sends and
	// retries); SMPRetries just the retries; SMPFailed the transactions
	// whose retry budget ran out (parked until a sweep re-drove them).
	SMPsSent, SMPRetries, SMPFailed int64
	// Failovers counts standby takeovers (and sticky take-backs).
	Failovers int64
	// PartitionEvents counts the SM's transitions into a partitioned
	// verdict: repair could not restore full reachability.
	PartitionEvents int64
	// UnreachableDegraded counts packets senders wrote off because the SM
	// declared their destination unreachable — graceful degradation instead
	// of burned retries, kept apart from Failed. With Transport on the
	// conservation identity becomes InFlightAtEnd = TotalGenerated -
	// TotalDelivered - Failed - UnreachableDegraded.
	UnreachableDegraded int64
}
