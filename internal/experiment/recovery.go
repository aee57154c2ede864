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

// RecoverySpec describes the recovery-transient study: one spine link dies
// mid-measurement and the live subnet-manager model repairs the fabric; the
// study contrasts how the single-LID and multiple-LID schemes ride through
// the transient, across virtual-lane counts. The failed link is always the
// first ascending link of node 0's leaf switch — the canonical "one spine
// path lost" fault, which leaves every destination reachable but breaks the
// descending half of the paths through that spine.
type RecoverySpec struct {
	Network Network
	// VLs are the virtual-lane counts to compare.
	VLs []int
	// OfferedLoad is the per-node injection rate (bytes/ns).
	OfferedLoad float64
	// WarmupNs / MeasureNs size the run window; FaultNs (inside the window)
	// is when the link dies.
	WarmupNs, MeasureNs, FaultNs sim.Time
	// SeriesIntervalNs bins the transient view.
	SeriesIntervalNs sim.Time
	// Reselect enables fault-avoiding source reselection after the first
	// SM trap (it only helps schemes with multiple LIDs per destination).
	Reselect bool
	// Seed drives all runs of the study.
	Seed int64
}

// RecoveryStudySpec is the full-fidelity recovery study configuration.
func RecoveryStudySpec() RecoverySpec {
	return RecoverySpec{
		Network:     Network{8, 3},
		VLs:         []int{1, 4},
		OfferedLoad: 0.3,
		WarmupNs:    50_000, MeasureNs: 300_000, FaultNs: 150_000,
		SeriesIntervalNs: 10_000,
		Reselect:         true,
		Seed:             77,
	}
}

// QuickRecoverySpec is a reduced-cost variant (small network, short windows)
// for test suites and CI figure smoke runs; the qualitative contrast —
// MLID recovers, SLID keeps dropping — is preserved.
func QuickRecoverySpec() RecoverySpec {
	return RecoverySpec{
		Network:     Network{4, 2},
		VLs:         []int{1, 2},
		OfferedLoad: 0.3,
		WarmupNs:    20_000, MeasureNs: 100_000, FaultNs: 50_000,
		SeriesIntervalNs: 5_000,
		Reselect:         true,
		Seed:             77,
	}
}

// RecoveryRow is one (scheme, VL count) cell of the recovery study.
type RecoveryRow struct {
	Scheme string
	VLs    int
	// DroppedWindow counts packets lost inside the measurement window;
	// Reroutes the packets reselection steered off the dead paths.
	DroppedWindow, Reroutes int64
	// BrokenEntries is the SM's count of irreparable descending entries;
	// LFTUpdates the staged per-switch table rewrites it applied.
	BrokenEntries int
	LFTUpdates    int64
	// RecoveryNs is first-failure to last-applied-update.
	RecoveryNs sim.Time
	// PreAccepted / PostAccepted are the mean accepted rates (bytes/ns/node)
	// before the failure and after the SM converged (plus a drain interval);
	// RecoveredFrac is their ratio. PreLatencyNs / PostLatencyNs are the
	// delivery-weighted mean latencies of the same windows.
	PreAccepted, PostAccepted   float64
	RecoveredFrac               float64
	PreLatencyNs, PostLatencyNs float64
	// DropsAfterRecovery counts drops after the post-window opened: zero
	// means the scheme fully rode through the fault.
	DropsAfterRecovery int64
	// Series is the run's per-interval transient view; RecoverySeriesCSV
	// renders it as recovery-tail curves.
	Series []sim.SeriesPoint
}

// RecoveryStudy runs the recovery transient for both schemes across the
// spec's VL counts and summarizes each run's transient into a row.
func RecoveryStudy(spec RecoverySpec) ([]RecoveryRow, error) {
	return runStudy(recoveryStudy(spec))
}

// recoveryStudy has one point per (scheme, VL count), scheme-major.
func recoveryStudy(spec RecoverySpec) (study[RecoveryRow], error) {
	var s study[RecoveryRow]
	tr, err := topology.New(spec.Network.M, spec.Network.N)
	if err != nil {
		return s, err
	}
	leaf, _ := tr.NodeAttachment(0)
	plan := &sim.FaultPlan{
		Faults:   []sim.LinkFault{{Switch: int32(leaf), Port: tr.DownPorts(leaf), DownNs: spec.FaultNs}},
		Reselect: spec.Reselect,
	}
	for _, scheme := range []core.Scheme{core.NewSLID(), core.NewMLID()} {
		sn, err := (&ib.SubnetManager{Tree: tr, Engine: scheme}).Configure()
		if err != nil {
			return s, fmt.Errorf("experiment: %s on %s: %w", scheme.Name(), spec.Network, err)
		}
		for vi, vls := range spec.VLs {
			s.points = append(s.points, point[RecoveryRow]{
				name: fmt.Sprintf("recovery run %s %dVL", scheme.Name(), vls),
				cfg: sim.Config{
					Subnet:           sn,
					Pattern:          traffic.Uniform{Nodes: tr.Nodes()},
					DataVLs:          vls,
					OfferedLoad:      spec.OfferedLoad,
					WarmupNs:         spec.WarmupNs,
					MeasureNs:        spec.MeasureNs,
					SeriesIntervalNs: spec.SeriesIntervalNs,
					FaultPlan:        plan,
					Seed:             spec.Seed + int64(vi),
				},
				row: RecoveryRow{Scheme: scheme.Name(), VLs: vls},
			})
		}
	}
	end := spec.WarmupNs + spec.MeasureNs
	s.reduce = func(res sim.Result, row *RecoveryRow) error {
		row.DroppedWindow = res.DroppedWindow
		row.Reroutes = res.Reroutes
		row.BrokenEntries = res.BrokenEntries
		row.LFTUpdates = res.LFTUpdates
		row.RecoveryNs = res.RecoveryNs
		row.Series = res.Series
		// The post window opens after the SM converged plus two series
		// bins of drain for in-flight stale packets.
		postFrom := spec.FaultNs + res.RecoveryNs + 2*spec.SeriesIntervalNs
		row.PreAccepted, row.PreLatencyNs, _ = window(res.Series, spec.WarmupNs, spec.FaultNs)
		row.PostAccepted, row.PostLatencyNs, row.DropsAfterRecovery = window(res.Series, postFrom, end)
		row.RecoveredFrac = ratioOf(row.PostAccepted, row.PreAccepted)
		return nil
	}
	return s, nil
}

// FormatRecovery renders the recovery rows as a markdown table.
func FormatRecovery(rows []RecoveryRow) string {
	var b strings.Builder
	b.WriteString("| scheme | VLs | dropped | reroutes | broken | LFT updates | recovery (ns) | pre B/ns | post B/ns | recovered | pre lat (ns) | post lat (ns) | drops after |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d | %.4f | %.4f | %.2f | %.0f | %.0f | %d |\n",
			r.Scheme, r.VLs, r.DroppedWindow, r.Reroutes, r.BrokenEntries, r.LFTUpdates,
			r.RecoveryNs, r.PreAccepted, r.PostAccepted, r.RecoveredFrac,
			r.PreLatencyNs, r.PostLatencyNs, r.DropsAfterRecovery)
	}
	return b.String()
}

// RecoverySeriesCSV renders every row's per-interval transient in long
// form: one line per (scheme, VLs, bin) with the bin's delivered, dropped,
// rerouted, retransmitted, failed, and unreachable-degraded counts — the
// recovery-tail curves behind the summary columns.
func RecoverySeriesCSV(rows []RecoveryRow) string {
	var b strings.Builder
	b.WriteString("scheme,vls,start_ns,accepted,mean_latency_ns,delivered,dropped,reroutes,retransmits,failed,unreachable\n")
	for _, r := range rows {
		for _, sp := range r.Series {
			fmt.Fprintf(&b, "%s,%d,%d,%.6f,%.2f,%d,%d,%d,%d,%d,%d\n",
				r.Scheme, r.VLs, sp.StartNs, sp.Accepted, sp.MeanLatencyNs,
				sp.Delivered, sp.Dropped, sp.Reroutes, sp.Retransmits, sp.Failed, sp.Unreachable)
		}
	}
	return b.String()
}

// RecoveryCSV renders the recovery rows in long form.
func RecoveryCSV(rows []RecoveryRow) string {
	var b strings.Builder
	b.WriteString("scheme,vls,dropped_window,reroutes,broken_entries,lft_updates,recovery_ns,pre_accepted,post_accepted,recovered_frac,pre_latency_ns,post_latency_ns,drops_after_recovery\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.4f,%.2f,%.2f,%d\n",
			r.Scheme, r.VLs, r.DroppedWindow, r.Reroutes, r.BrokenEntries, r.LFTUpdates,
			r.RecoveryNs, r.PreAccepted, r.PostAccepted, r.RecoveredFrac,
			r.PreLatencyNs, r.PostLatencyNs, r.DropsAfterRecovery)
	}
	return b.String()
}
