package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/sim"
	"mlid/internal/topology"
	"mlid/internal/traffic"
	"mlid/internal/verify"
)

// DegradedSpec describes the degraded-fabric quality study: at each fault
// rate, a seeded sample of the inter-switch links fails before the
// measurement window opens, the subnet-manager repair runs its course, and
// the study records two independent views of the surviving fabric:
//
//   - static: the SM's incremental repair (core.RepairState, the simulator's
//     repair path) applied to the scheme's pristine tables, analyzed by
//     the ibverify quality pass (per-link maximal load, dilation, unrouted
//     flows under all-to-all) with core.SelectLID standing in for MLID's
//     fault-avoiding source reselection;
//   - dynamic: a full simulation of the same outage (faults early, SM
//     recovery, Reselect on, epoch verification on), recording accepted
//     throughput.
//
// The point of the study is the cross-validation the two views afford: the
// static max-load ranking of SLID vs MLID must match the simulated
// accepted-throughput ordering at every rate (DegradedOrderingConsistent),
// or the static analyzer is measuring the wrong thing.
type DegradedSpec struct {
	Network Network
	// Rates are the fractions of inter-switch links to fail, e.g.
	// 0.01..0.10. Each rate draws its own seeded sample; both schemes see
	// the identical sample.
	Rates []float64
	// SwitchOuts are whole-switch outage counts — the second axis of the
	// study. Each count draws a seeded sample of non-leaf switches (leaves
	// never fail: the study degrades the interior, not the endpoints) and
	// takes every one of their links down before warmup; the dynamic view
	// reuses FaultPlan.SwitchFaults, so its whole-switch validation and
	// atomic down semantics apply.
	SwitchOuts []int
	// DataVLs is the virtual-lane count for both views.
	DataVLs int
	// OfferedLoad is the per-node injection rate of the dynamic view.
	OfferedLoad float64
	// FaultNs is when the sampled links die — before WarmupNs, so the SM
	// has converged when measurement opens and the window sees the steady
	// degraded fabric, not the transient.
	FaultNs, WarmupNs, MeasureNs sim.Time
	// Shards is passed through to sim.Config.Shards.
	//
	// Deprecated: the sharded engine was removed; sim.Config rejects any
	// value other than 0 or 1. Leave Shards unset.
	Shards int
	// Seed drives the link samples and every simulation.
	Seed int64
}

// DegradedStudySpec is the full-fidelity degraded-fabric study.
func DegradedStudySpec() DegradedSpec {
	return DegradedSpec{
		Network:     Network{8, 3},
		Rates:       []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.10},
		SwitchOuts:  []int{1, 2, 4},
		DataVLs:     2,
		OfferedLoad: 0.3,
		FaultNs:     2_000, WarmupNs: 50_000, MeasureNs: 200_000,
		Seed: 1789,
	}
}

// QuickDegradedSpec is the reduced-cost variant for test suites and CI.
func QuickDegradedSpec() DegradedSpec {
	return DegradedSpec{
		Network:     Network{8, 2},
		Rates:       []float64{0.02, 0.06, 0.10},
		SwitchOuts:  []int{1},
		DataVLs:     2,
		OfferedLoad: 0.3,
		FaultNs:     2_000, WarmupNs: 20_000, MeasureNs: 80_000,
		Seed: 1789,
	}
}

// DegradedRow is one (scheme, fault scenario) outcome of the study.
type DegradedRow struct {
	Scheme string
	// Axis names the fault scenario family: "links" (sampled link rate) or
	// "switches" (whole non-leaf switch outages). Rate is set on the links
	// axis, SwitchesOut on the switches axis.
	Axis        string
	Rate        float64
	SwitchesOut int
	// FailedLinks is the realized dead-link count of the scenario.
	FailedLinks int
	// Static view: the ibverify quality pass over the repaired tables.
	// StaticMaxLoad is the per-link maximal load under all-to-all (the
	// congestion bound), StaticUnrouted the flows no surviving LID serves,
	// StaticMeanDilation the mean path stretch vs the minimal up*/down*
	// path. StaticWarnings counts the dead-link findings (broken
	// descending entries) the verifier kept: at most 64 per analyzer, the
	// default verify.Options.MaxFindings — those past the cap count in the
	// report's Stats.Suppressed instead. Error-severity findings abort the
	// study.
	StaticMaxLoad      float64
	StaticMeanLoad     float64
	StaticMeanDilation float64
	StaticUnrouted     int
	StaticWarnings     int
	// StaticServedFrac is the routed fraction of all-to-all flows, and
	// StaticPredictedAccepted the throughput bound the static view implies:
	// OfferedLoad x served fraction, scaled down when the max-load link
	// would saturate (each routed flow demands OfferedLoad/(nodes-1) B/ns
	// of a 1 B/ns link, so demand beyond capacity rescales every flow).
	// Max load alone ranks congestion; this bound also charges SLID for
	// the flows it cannot route at all, which is what accepted throughput
	// sees — the ordering check compares this, the full static prediction.
	StaticServedFrac        float64
	StaticPredictedAccepted float64
	// BrokenEntries is the repair's irreparable-descending-entry count
	// (core.RepairState.Broken).
	BrokenEntries int
	// Dynamic view: the simulated run over the same outage.
	Accepted       float64
	DroppedWindow  int64
	Reroutes       int64
	MeanLatencyNs  float64
	VerifiedEpochs int
}

// sampleLinks draws the failed inter-switch links for one rate: rate x
// (candidate link count) of them, at least one, chosen by a seeded shuffle
// over the canonical (lower switch id) link list, less the links of the
// excluded switches. Node attachment links never fail — the studies degrade
// the fabric's interior, not its endpoints.
func sampleLinks(tr *topology.Tree, rate float64, rng *rand.Rand, exclude map[int32]bool) [][2]int32 {
	var candidates [][2]int32
	for sw := 0; sw < tr.Switches(); sw++ {
		for port := 0; port < tr.M(); port++ {
			ref := tr.SwitchNeighbor(topology.SwitchID(sw), port)
			if ref.Kind != topology.KindSwitch || int32(ref.Switch) < int32(sw) {
				continue
			}
			if exclude[int32(sw)] || exclude[int32(ref.Switch)] {
				continue
			}
			candidates = append(candidates, [2]int32{int32(sw), int32(port)})
		}
	}
	k := int(rate*float64(len(candidates)) + 0.5)
	k = min(max(k, 1), len(candidates))
	out := make([][2]int32, 0, k)
	for _, i := range rng.Perm(len(candidates))[:k] {
		out = append(out, candidates[i])
	}
	return out
}

// degradedSwitchSample draws k distinct non-leaf switches by a seeded
// shuffle. Leaves are excluded (killing one just unplugs its nodes), and k
// must leave at least one switch per non-leaf level standing so the fabric
// retains some spine capacity to study.
func degradedSwitchSample(tr *topology.Tree, k int, rng *rand.Rand) ([]int32, error) {
	var candidates []int32
	for sw := 0; sw < tr.Switches(); sw++ {
		if !tr.IsLeaf(topology.SwitchID(sw)) {
			candidates = append(candidates, int32(sw))
		}
	}
	if k < 1 || k >= len(candidates) {
		return nil, fmt.Errorf("experiment: degraded switch-out count %d outside [1, %d)", k, len(candidates))
	}
	out := make([]int32, 0, k)
	for _, i := range rng.Perm(len(candidates))[:k] {
		out = append(out, candidates[i])
	}
	return out, nil
}

// DegradedStudy runs the degraded-fabric sweep for both schemes across the
// spec's fault rates. Any error-severity verify finding on the repaired
// tables, or any failed simulation (which includes per-epoch verification),
// fails the study.
func DegradedStudy(spec DegradedSpec) ([]DegradedRow, error) {
	return runStudy(degradedStudy(spec))
}

// degradedStudy has one point per (scenario, scheme), scenario-major. A
// point's static step repairs and verifies the degraded tables on the
// point's worker before its simulation runs.
func degradedStudy(spec DegradedSpec) (study[DegradedRow], error) {
	var s study[DegradedRow]
	tr, err := topology.New(spec.Network.M, spec.Network.N)
	if err != nil {
		return s, err
	}
	if spec.FaultNs <= 0 || spec.FaultNs >= spec.WarmupNs {
		return s, fmt.Errorf("experiment: degraded FaultNs %d must fall inside (0, WarmupNs %d)", spec.FaultNs, spec.WarmupNs)
	}
	// Each scenario is one fault draw both schemes run against. The links
	// axis samples individual inter-switch links; the switches axis takes
	// whole non-leaf switches out, expressed to the simulator as
	// FaultPlan.SwitchFaults so its validation and atomic-outage semantics
	// are reused rather than re-implemented.
	type scenario struct {
		axis        string
		rate        float64
		switchesOut int
		label       string
		links       [][2]int32
		plan        *sim.FaultPlan
		seed        int64
	}
	scenarios := make([]scenario, 0, len(spec.Rates)+len(spec.SwitchOuts))
	for ri, rate := range spec.Rates {
		if rate <= 0 || rate > 1 {
			return s, fmt.Errorf("experiment: degraded fault rate %v out of (0, 1]", rate)
		}
		rng := rand.New(rand.NewSource(spec.Seed*6151 + int64(ri)))
		sc := scenario{
			axis: "links", rate: rate,
			label: fmt.Sprintf("link rate %v", rate),
			links: sampleLinks(tr, rate, rng, nil),
			plan:  &sim.FaultPlan{Reselect: true},
			seed:  spec.Seed + int64(ri),
		}
		for _, l := range sc.links {
			sc.plan.Faults = append(sc.plan.Faults, sim.LinkFault{Switch: l[0], Port: int(l[1]), DownNs: spec.FaultNs})
		}
		scenarios = append(scenarios, sc)
	}
	for si, k := range spec.SwitchOuts {
		rng := rand.New(rand.NewSource(spec.Seed*9311 + int64(si)))
		switches, err := degradedSwitchSample(tr, k, rng)
		if err != nil {
			return s, err
		}
		sc := scenario{
			axis: "switches", switchesOut: k,
			label: fmt.Sprintf("%d switch(es) out", k),
			plan:  &sim.FaultPlan{Reselect: true},
			seed:  spec.Seed + int64(1000+si),
		}
		// Each physical link counts once: a link between two sampled
		// (adjacent) switches is named by the one drawn first.
		out := map[int32]bool{}
		for _, sw := range switches {
			sc.plan.SwitchFaults = append(sc.plan.SwitchFaults, sim.SwitchFault{Switch: sw, DownNs: spec.FaultNs})
			for port := 0; port < tr.M(); port++ {
				ref := tr.SwitchNeighbor(topology.SwitchID(sw), port)
				if ref.Kind == topology.KindNone || ref.Kind == topology.KindSwitch && out[int32(ref.Switch)] {
					continue
				}
				sc.links = append(sc.links, [2]int32{sw, int32(port)})
			}
			out[sw] = true
		}
		scenarios = append(scenarios, sc)
	}

	// One pristine configuration per (tree, scheme), shared by every
	// scenario: each point's repair state only reads it and its one reverse
	// index (built by the first state, shared by the rest), and under a
	// FaultPlan the simulator clones the tables its faults can dirty and
	// only reads the others, so the pristine subnets are only ever read
	// concurrently.
	schemes := []core.Scheme{core.NewSLID(), core.NewMLID()}
	pristine := make([]*ib.Subnet, len(schemes))
	for i, scheme := range schemes {
		sn, err := (&ib.SubnetManager{Tree: tr, Engine: scheme}).Configure()
		if err != nil {
			return s, fmt.Errorf("experiment: %s on %s: %w", scheme.Name(), spec.Network, err)
		}
		pristine[i] = sn
	}

	for _, sc := range scenarios {
		for i, scheme := range schemes {
			s.points = append(s.points, point[DegradedRow]{
				name: fmt.Sprintf("degraded run %s at %s", scheme.Name(), sc.label),
				// The dynamic view: the same outage simulated end to end,
				// straight off the shared pristine subnet (the simulator's
				// fault path clones each table its SM may rewrite).
				cfg: sim.Config{
					Subnet:       pristine[i],
					Pattern:      traffic.Uniform{Nodes: tr.Nodes()},
					DataVLs:      spec.DataVLs,
					OfferedLoad:  spec.OfferedLoad,
					WarmupNs:     spec.WarmupNs,
					MeasureNs:    spec.MeasureNs,
					FaultPlan:    sc.plan,
					VerifyEpochs: true,
					Shards:       spec.Shards,
					Seed:         sc.seed,
				},
				row: DegradedRow{
					Scheme: scheme.Name(),
					Axis:   sc.axis, Rate: sc.rate, SwitchesOut: sc.switchesOut,
					FailedLinks: len(sc.links),
				},
			})
		}
	}

	// The static view: repair the pristine configuration the way the SM
	// does live and run the verifier's quality pass over the repair target,
	// with fault-avoiding source selection standing in for what reselection
	// does live.
	s.static = func(pt int, row *DegradedRow) error {
		sc := scenarios[pt/len(schemes)]
		scheme := schemes[pt%len(schemes)]
		sn := pristine[pt%len(schemes)]
		fs := core.NewFaultSet()
		for _, l := range sc.links {
			fs.FailLink(tr, topology.SwitchID(l[0]), int(l[1]))
		}
		rs := core.NewRepairState(sn)
		if _, err := rs.RepairIncremental(fs, rs.DirtySwitches(nil, sc.links)); err != nil {
			return fmt.Errorf("experiment: degraded repair %s at %s: %w", scheme.Name(), sc.label, err)
		}
		lfts, err := rs.TargetLFTs()
		if err != nil {
			return fmt.Errorf("experiment: degraded repair %s at %s: %w", scheme.Name(), sc.label, err)
		}
		row.BrokenEntries = rs.Broken()
		in := verify.Input{
			Tree:      tr,
			Endports:  sn.Endports,
			LFTs:      lfts,
			Engine:    scheme,
			DeadLinks: sc.links,
			SelectDLID: func(src, dst topology.NodeID) (ib.LID, bool) {
				return core.SelectLID(tr, scheme, src, dst, fs)
			},
		}
		rep, err := verify.Run(in, verify.Options{VLs: spec.DataVLs})
		if err != nil {
			return fmt.Errorf("experiment: degraded verify %s at %s: %w", scheme.Name(), sc.label, err)
		}
		if n := rep.Errors(); n > 0 {
			return fmt.Errorf("experiment: degraded verify %s at %s: %d error finding(s); first: %s",
				scheme.Name(), sc.label, n, firstError(rep))
		}
		row.StaticWarnings = rep.Warnings()
		if len(rep.Stats.Quality) == 0 {
			return fmt.Errorf("experiment: degraded verify %s at %s: no quality report", scheme.Name(), sc.label)
		}
		q := rep.Stats.Quality[0] // the all-to-all matrix
		row.StaticMaxLoad = q.MaxLoad
		row.StaticMeanLoad = q.MeanLoad
		row.StaticMeanDilation = q.MeanDilation
		row.StaticUnrouted = q.Unrouted
		if q.Flows > 0 {
			row.StaticServedFrac = float64(q.Flows-q.Unrouted) / float64(q.Flows)
		}
		perFlow := spec.OfferedLoad / float64(tr.Nodes()-1)
		scale := 1.0
		if demand := q.MaxLoad * perFlow; demand > 1 {
			scale = 1 / demand
		}
		row.StaticPredictedAccepted = spec.OfferedLoad * row.StaticServedFrac * scale
		return nil
	}
	s.reduce = func(res sim.Result, row *DegradedRow) error {
		row.Accepted = res.Accepted
		row.DroppedWindow = res.DroppedWindow
		row.Reroutes = res.Reroutes
		row.MeanLatencyNs = res.MeanLatencyNs
		row.VerifiedEpochs = res.VerifiedEpochs
		return nil
	}
	return s, nil
}

// firstError returns the first error-severity finding's rendering.
func firstError(rep *verify.Report) string {
	for _, f := range rep.Findings {
		if f.Severity == verify.Error {
			return f.String()
		}
	}
	return "(none)"
}

// DegradedOrderingConsistent checks the study's cross-validation claim: in
// every fault scenario, the static ranking of the two schemes — the
// max-load-and-unrouted throughput bound StaticPredictedAccepted — must
// agree with the simulated accepted-throughput ordering: the scheme the
// analyzer predicts serves more must not deliver less. Near-ties (within
// 2% relative) on either side are treated as agreement, since neither view
// resolves finer than that.
func DegradedOrderingConsistent(rows []DegradedRow) error {
	// Scenarios are keyed by the full axis coordinate, so link-rate and
	// switch-out rows never pair up across axes.
	key := func(r DegradedRow) string { return fmt.Sprintf("%s|%v|%d", r.Axis, r.Rate, r.SwitchesOut) }
	byScenario := map[string]map[string]DegradedRow{}
	for _, r := range rows {
		k := key(r)
		if byScenario[k] == nil {
			byScenario[k] = map[string]DegradedRow{}
		}
		byScenario[k][r.Scheme] = r
	}
	for _, r := range rows {
		pair := byScenario[key(r)]
		s, sOK := pair["SLID"]
		m, mOK := pair["MLID"]
		if !sOK || !mOK {
			return fmt.Errorf("experiment: degraded scenario %s missing a scheme", key(r))
		}
		predGap := relGap(m.StaticPredictedAccepted, s.StaticPredictedAccepted)
		accGap := relGap(m.Accepted, s.Accepted)
		// predGap > 0: the analyzer predicts MLID serves more.
		// accGap  > 0: the simulator delivered more under MLID.
		// A conflict is both gaps decisive (beyond the 2% tie band) with
		// opposite signs.
		const tie = 0.02
		if predGap > tie && accGap < -tie {
			return fmt.Errorf("experiment: degraded scenario %s: static predicts MLID serves more (%.4f vs %.4f) but simulation delivered less (%.4f vs %.4f)",
				key(r), m.StaticPredictedAccepted, s.StaticPredictedAccepted, m.Accepted, s.Accepted)
		}
		if predGap < -tie && accGap > tie {
			return fmt.Errorf("experiment: degraded scenario %s: static predicts SLID serves more (%.4f vs %.4f) but simulation delivered less (%.4f vs %.4f)",
				key(r), s.StaticPredictedAccepted, m.StaticPredictedAccepted, s.Accepted, m.Accepted)
		}
	}
	return nil
}

// relGap is (a-b) normalized by the larger magnitude; 0 when both are 0.
func relGap(a, b float64) float64 {
	den := a
	if b > den {
		den = b
	}
	if den == 0 {
		return 0
	}
	return (a - b) / den
}

// FormatDegraded renders the study as a markdown table.
func FormatDegraded(rows []DegradedRow) string {
	var b strings.Builder
	b.WriteString("| scheme | axis | rate | sw out | links | static max load | mean load | dilation | unrouted | served | predicted B/ns | broken | warnings | accepted B/ns | dropped | reroutes | lat (ns) | epochs |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %.2f | %d | %d | %.1f | %.1f | %.3f | %d | %.3f | %.4f | %d | %d | %.4f | %d | %d | %.0f | %d |\n",
			r.Scheme, r.Axis, r.Rate, r.SwitchesOut, r.FailedLinks, r.StaticMaxLoad, r.StaticMeanLoad,
			r.StaticMeanDilation, r.StaticUnrouted, r.StaticServedFrac, r.StaticPredictedAccepted,
			r.BrokenEntries, r.StaticWarnings,
			r.Accepted, r.DroppedWindow, r.Reroutes, r.MeanLatencyNs, r.VerifiedEpochs)
	}
	return b.String()
}

// DegradedCSV renders the study in long form.
func DegradedCSV(rows []DegradedRow) string {
	var b strings.Builder
	b.WriteString("scheme,axis,rate,switches_out,failed_links,static_max_load,static_mean_load,static_mean_dilation,static_unrouted,static_served_frac,static_predicted_accepted,broken_entries,static_warnings,accepted,dropped_window,reroutes,mean_latency_ns,verified_epochs\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%.4f,%d,%d,%.2f,%.2f,%.4f,%d,%.4f,%.6f,%d,%d,%.6f,%d,%d,%.2f,%d\n",
			r.Scheme, r.Axis, r.Rate, r.SwitchesOut, r.FailedLinks, r.StaticMaxLoad, r.StaticMeanLoad,
			r.StaticMeanDilation, r.StaticUnrouted, r.StaticServedFrac, r.StaticPredictedAccepted,
			r.BrokenEntries, r.StaticWarnings,
			r.Accepted, r.DroppedWindow, r.Reroutes, r.MeanLatencyNs, r.VerifiedEpochs)
	}
	return b.String()
}
