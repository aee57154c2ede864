package experiment

import (
	"fmt"
	"strings"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/sim"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// SMSpec describes the in-band subnet-management study: the same two faults
// — a permanent spine-link loss on a victim leaf, then a transient outage of
// the switch hosting the master SM — replayed under the oracle SM (fiat
// traps, fiat table writes) and under the in-band SM at increasing trap-loss
// rates, for each routing scheme. The master-switch outage is the stress
// case the in-band model exists for: while it lasts, every trap addressed to
// the master is lost, repair stalls until a sweep fails over to the standby,
// and the severed leaf's nodes surface as a typed partition that sources
// degrade against instead of burning retries.
type SMSpec struct {
	Network Network
	// DataVLs is the virtual-lane count; OfferedLoad the per-node injection
	// rate (bytes/ns).
	DataVLs     int
	OfferedLoad float64
	// WarmupNs / MeasureNs size the run window.
	WarmupNs, MeasureNs sim.Time
	// LinkFaultNs is when the victim leaf's first ascending link dies (for
	// the rest of the run). The victim leaf is the leaf of node Nodes/2 —
	// far from both SM attachment points.
	LinkFaultNs sim.Time
	// SMDownNs / SMUpNs bound the outage of the master SM's leaf switch.
	SMDownNs, SMUpNs sim.Time
	// SeriesIntervalNs bins the recovery-tail view.
	SeriesIntervalNs sim.Time
	// SweepIntervalNs is the in-band SM's discovery-sweep period.
	SweepIntervalNs sim.Time
	// TrapLossProbs are the in-band trap-loss rates to sweep; each value
	// yields one in-band row per scheme, alongside the oracle row. 1.0
	// silences every trap — the sweep-only extreme.
	TrapLossProbs []float64
	// VerifyEpochs re-verifies forwarding state at every applied epoch.
	VerifyEpochs bool
	// Shards is passed through to sim.Config.Shards.
	//
	// Deprecated: the sharded engine was removed; sim.Config rejects any
	// value other than 0 or 1. Leave Shards unset.
	Shards int
	// Seed drives all runs of the study.
	Seed int64
}

// SMStudySpec is the full-fidelity in-band SM study. Fault instants are
// deliberately off the 20k sweep grid so discovery latency is visible.
func SMStudySpec() SMSpec {
	return SMSpec{
		Network:     Network{8, 3},
		DataVLs:     2,
		OfferedLoad: 0.3,
		WarmupNs:    50_000, MeasureNs: 300_000,
		LinkFaultNs: 105_000,
		SMDownNs:    151_000, SMUpNs: 221_000,
		SeriesIntervalNs: 10_000,
		SweepIntervalNs:  20_000,
		TrapLossProbs:    []float64{0, 0.5, 1},
		Seed:             4099,
	}
}

// QuickSMSpec is the reduced-cost variant for test suites and CI smoke
// runs; the qualitative story (lost traps, sweep recovery, failover,
// degradation) is preserved on the small network.
func QuickSMSpec() SMSpec {
	return SMSpec{
		Network:     Network{4, 2},
		DataVLs:     2,
		OfferedLoad: 0.3,
		WarmupNs:    20_000, MeasureNs: 120_000,
		LinkFaultNs: 43_000,
		SMDownNs:    61_000, SMUpNs: 93_000,
		SeriesIntervalNs: 5_000,
		SweepIntervalNs:  10_000,
		TrapLossProbs:    []float64{1},
		VerifyEpochs:     true,
		Seed:             4099,
	}
}

// SMRow is one (scheme, SM mode) cell of the study.
type SMRow struct {
	Scheme string
	// Mode is "oracle" (fiat SM) or "inband"; TrapLossProb only applies to
	// in-band rows.
	Mode         string
	TrapLossProb float64
	// Management-plane counters (zero on oracle rows).
	TrapsSent, TrapsLost, TrapsDelivered int64
	SMSweeps, SweepDetections            int64
	SMPsSent, SMPRetries, SMPFailed      int64
	Failovers, PartitionEvents           int64
	// UnreachableDegraded counts packets written off against provably
	// unreachable destinations; Failed the transport retry-budget
	// exhaustions — the waste degradation exists to avoid.
	UnreachableDegraded, Failed int64
	LFTUpdates                  int64
	// RecoveryNs is first-failure to last-applied table update.
	RecoveryNs sim.Time
	// PreAccepted / OutageAccepted / PostAccepted are mean accepted rates
	// (bytes/ns/node) before the first fault, during the master-SM outage,
	// and after revival plus two sweep intervals of settling.
	PreAccepted, OutageAccepted, PostAccepted float64
	// Series is the recovery-tail view (see SMSeriesCSV).
	Series []sim.SeriesPoint
}

// smScheme is one routing configuration the study sweeps.
type smScheme struct {
	label  string
	scheme func() core.Scheme
	sel    sim.Selector
}

func smSchemes() []smScheme {
	return []smScheme{
		{"SLID", func() core.Scheme { return core.NewSLID() }, nil},
		{"MLID", func() core.Scheme { return core.NewMLID() }, nil},
		{"MLID+adaptive", func() core.Scheme { return core.NewMLID() }, sim.SelectAdaptive()},
	}
}

// SMStudy runs the in-band SM study and enforces its invariants on every
// run: exact packet conservation (generated = delivered + failed +
// unreachable-degraded + in-flight), a clean oracle (no management-plane
// counters), and on in-band rows exactly one sticky failover, at least one
// sweep detection, and — at trap-loss 1 — zero delivered traps.
func SMStudy(spec SMSpec) ([]SMRow, error) {
	tr, err := topology.New(spec.Network.M, spec.Network.N)
	if err != nil {
		return nil, err
	}
	if spec.LinkFaultNs <= 0 || spec.SMDownNs <= spec.LinkFaultNs || spec.SMUpNs <= spec.SMDownNs {
		return nil, fmt.Errorf("experiment: sm study wants 0 < LinkFaultNs %d < SMDownNs %d < SMUpNs %d",
			spec.LinkFaultNs, spec.SMDownNs, spec.SMUpNs)
	}
	victimLeaf, _ := tr.NodeAttachment(topology.NodeID(tr.Nodes() / 2))
	master, _ := sim.SMNodes(tr)
	masterLeaf, _ := tr.NodeAttachment(master)
	type mode struct {
		name string
		prob float64
	}
	modes := []mode{{"oracle", 0}}
	for _, p := range spec.TrapLossProbs {
		modes = append(modes, mode{"inband", p})
	}

	// One pristine configuration per routing scheme, shared read-only by all
	// of that scheme's modes (every run carries a FaultPlan, so the
	// simulator clones the tables itself).
	schemes := smSchemes()
	pristine := make([]*ib.Subnet, len(schemes))
	for i, sc := range schemes {
		sn, err := (&ib.SubnetManager{Tree: tr, Engine: sc.scheme()}).Configure()
		if err != nil {
			return nil, fmt.Errorf("experiment: %s on %s: %w", sc.label, spec.Network, err)
		}
		pristine[i] = sn
	}

	// One sweep point per (scheme, mode), scheme-major — the serial row
	// order — executed on the campaign worker pool.
	points := len(schemes) * len(modes)
	return campaignRun(points, campaignWorkers(points), func(pt int) (SMRow, error) {
		sc := schemes[pt/len(modes)]
		mi := pt % len(modes)
		md := modes[mi]
		plan := &sim.FaultPlan{
			Faults: []sim.LinkFault{
				{Switch: int32(victimLeaf), Port: tr.DownPorts(victimLeaf), DownNs: spec.LinkFaultNs},
			},
			SwitchFaults: []sim.SwitchFault{
				{Switch: int32(masterLeaf), DownNs: spec.SMDownNs, UpNs: spec.SMUpNs},
			},
			Reselect: true,
		}
		if md.name == "inband" {
			plan.InBandSM = &sim.InBandSMConfig{
				SweepIntervalNs: spec.SweepIntervalNs,
				TrapLossProb:    md.prob,
			}
		}
		res, err := sim.Run(sim.Config{
			Subnet:           pristine[pt/len(modes)],
			Pattern:          traffic.Uniform{Nodes: tr.Nodes()},
			DataVLs:          spec.DataVLs,
			OfferedLoad:      spec.OfferedLoad,
			WarmupNs:         spec.WarmupNs,
			MeasureNs:        spec.MeasureNs,
			SeriesIntervalNs: spec.SeriesIntervalNs,
			PathSelect:       sc.sel,
			FaultPlan:        plan,
			Transport:        &sim.TransportConfig{BaseTimeoutNs: 5_000, MaxRetries: 3, MaxTimeoutNs: 20_000},
			VerifyEpochs:     spec.VerifyEpochs,
			Shards:           spec.Shards,
			Seed:             spec.Seed + int64(mi),
		})
		if err != nil {
			return SMRow{}, fmt.Errorf("experiment: sm run %s/%s p=%v: %w", sc.label, md.name, md.prob, err)
		}
		if err := smInvariants(sc.label, md.name, md.prob, res); err != nil {
			return SMRow{}, err
		}
		row := SMRow{
			Scheme: sc.label, Mode: md.name, TrapLossProb: md.prob,
			TrapsSent: res.TrapsSent, TrapsLost: res.TrapsLost, TrapsDelivered: res.TrapsDelivered,
			SMSweeps: res.SMSweeps, SweepDetections: res.SweepDetections,
			SMPsSent: res.SMPsSent, SMPRetries: res.SMPRetries, SMPFailed: res.SMPFailed,
			Failovers: res.Failovers, PartitionEvents: res.PartitionEvents,
			UnreachableDegraded: res.UnreachableDegraded, Failed: res.Failed,
			LFTUpdates: res.LFTUpdates, RecoveryNs: res.RecoveryNs,
			Series: res.Series,
		}
		// Windowed accepted rates: before the link fault, during the
		// master-SM outage, and after revival plus two sweeps of settling.
		postFrom := spec.SMUpNs + 2*spec.SweepIntervalNs
		end := spec.WarmupNs + spec.MeasureNs
		row.PreAccepted = meanAccepted(res.Series, spec.WarmupNs, spec.LinkFaultNs)
		row.OutageAccepted = meanAccepted(res.Series, spec.SMDownNs, spec.SMUpNs)
		row.PostAccepted = meanAccepted(res.Series, postFrom, end)
		return row, nil
	})
}

// smInvariants enforces the per-run acceptance checks of the study.
func smInvariants(scheme, mode string, prob float64, res sim.Result) error {
	id := fmt.Sprintf("%s/%s p=%v", scheme, mode, prob)
	if got := res.TotalDelivered + res.Failed + res.UnreachableDegraded + res.InFlightAtEnd; got != res.TotalGenerated {
		return fmt.Errorf("experiment: sm run %s violates packet conservation: delivered %d + failed %d + unreachable %d + inflight %d != generated %d",
			id, res.TotalDelivered, res.Failed, res.UnreachableDegraded, res.InFlightAtEnd, res.TotalGenerated)
	}
	if mode == "oracle" {
		if res.TrapsSent != 0 || res.SMSweeps != 0 || res.SMPsSent != 0 || res.Failovers != 0 ||
			res.PartitionEvents != 0 || res.UnreachableDegraded != 0 {
			return fmt.Errorf("experiment: sm run %s: oracle mode leaked in-band counters", id)
		}
		return nil
	}
	// The master-leaf outage must force exactly one (sticky) failover, and
	// the traps it silences must come back through sweep discovery.
	if res.Failovers != 1 {
		return fmt.Errorf("experiment: sm run %s: %d failovers, want exactly 1", id, res.Failovers)
	}
	if res.SweepDetections == 0 {
		return fmt.Errorf("experiment: sm run %s: no sweep ever discovered hidden state", id)
	}
	if res.TrapsLost == 0 {
		return fmt.Errorf("experiment: sm run %s: the master outage lost no traps", id)
	}
	if res.PartitionEvents == 0 {
		return fmt.Errorf("experiment: sm run %s: severing the master leaf raised no partition finding", id)
	}
	if prob >= 1 && res.TrapsDelivered != 0 {
		return fmt.Errorf("experiment: sm run %s: %d traps delivered at loss probability 1", id, res.TrapsDelivered)
	}
	return nil
}

// meanAccepted averages the Accepted rate of the series bins whose start
// falls in [from, to).
func meanAccepted(series []sim.SeriesPoint, from, to sim.Time) float64 {
	var sum float64
	var n int
	for _, sp := range series {
		if sp.StartNs >= from && sp.StartNs < to {
			sum += sp.Accepted
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FormatSM renders the study as a markdown table.
func FormatSM(rows []SMRow) string {
	var b strings.Builder
	b.WriteString("| scheme | mode | loss | traps s/l/d | sweeps | detects | SMPs | rexmit | failed | failover | partition | degraded | tx failed | LFT updates | recovery (ns) | pre B/ns | outage B/ns | post B/ns |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %.2f | %d/%d/%d | %d | %d | %d | %d | %d | %d | %d | %d | %d | %d | %d | %.4f | %.4f | %.4f |\n",
			r.Scheme, r.Mode, r.TrapLossProb, r.TrapsSent, r.TrapsLost, r.TrapsDelivered,
			r.SMSweeps, r.SweepDetections, r.SMPsSent, r.SMPRetries, r.SMPFailed,
			r.Failovers, r.PartitionEvents, r.UnreachableDegraded, r.Failed,
			r.LFTUpdates, r.RecoveryNs, r.PreAccepted, r.OutageAccepted, r.PostAccepted)
	}
	return b.String()
}

// SMCSV renders the study rows in long form.
func SMCSV(rows []SMRow) string {
	var b strings.Builder
	b.WriteString("scheme,mode,trap_loss_prob,traps_sent,traps_lost,traps_delivered,sm_sweeps,sweep_detections,smps_sent,smp_retries,smp_failed,failovers,partition_events,unreachable_degraded,failed,lft_updates,recovery_ns,pre_accepted,outage_accepted,post_accepted\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f\n",
			r.Scheme, r.Mode, r.TrapLossProb, r.TrapsSent, r.TrapsLost, r.TrapsDelivered,
			r.SMSweeps, r.SweepDetections, r.SMPsSent, r.SMPRetries, r.SMPFailed,
			r.Failovers, r.PartitionEvents, r.UnreachableDegraded, r.Failed,
			r.LFTUpdates, r.RecoveryNs, r.PreAccepted, r.OutageAccepted, r.PostAccepted)
	}
	return b.String()
}

// SMSeriesCSV renders every row's per-interval recovery tail in long form:
// one line per (scheme, mode, loss, bin) with the delivered / dropped /
// retransmit / failed / unreachable counts of the bin.
func SMSeriesCSV(rows []SMRow) string {
	var b strings.Builder
	b.WriteString("scheme,mode,trap_loss_prob,start_ns,accepted,delivered,dropped,reroutes,retransmits,failed,unreachable\n")
	for _, r := range rows {
		for _, sp := range r.Series {
			fmt.Fprintf(&b, "%s,%s,%.4f,%d,%.6f,%d,%d,%d,%d,%d,%d\n",
				r.Scheme, r.Mode, r.TrapLossProb, sp.StartNs, sp.Accepted,
				sp.Delivered, sp.Dropped, sp.Reroutes, sp.Retransmits, sp.Failed, sp.Unreachable)
		}
	}
	return b.String()
}
