package sim

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/golden"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// goldenCases are the configurations whose results are pinned bit-for-bit in
// testdata/golden_results.txt. The fixtures were recorded under the original
// container/heap closure engine; the typed-event calendar-queue engine must
// reproduce them exactly — any drift in event ordering shows up here.
func goldenCases(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	uni42 := mustSubnet(t, 4, 2, core.NewMLID())
	slid82 := mustSubnet(t, 8, 2, core.NewSLID())
	mlid82 := mustSubnet(t, 8, 2, core.NewMLID())
	return []struct {
		name string
		cfg  Config
	}{
		{"mlid-4x2-uniform-vl2", Config{
			Subnet: uni42, Pattern: traffic.Uniform{Nodes: uni42.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.4, WarmupNs: 10_000, MeasureNs: 60_000, Seed: 7,
		}},
		{"slid-8x2-centric-vl1", Config{
			Subnet: slid82, Pattern: traffic.Centric{Nodes: slid82.Tree.Nodes(), Hotspot: 0, Fraction: 0.5},
			OfferedLoad: 0.5, WarmupNs: 10_000, MeasureNs: 50_000, Seed: 3,
		}},
		{"mlid-8x2-uniform-vl4-saf", Config{
			Subnet: mlid82, Pattern: traffic.Uniform{Nodes: mlid82.Tree.Nodes()},
			DataVLs: 4, OfferedLoad: 0.6, WarmupNs: 10_000, MeasureNs: 50_000,
			Switching: SwitchingSAF, Reception: ReceptionLink, Seed: 11,
		}},
		{"mlid-4x2-lowload-heapgen", Config{
			// Interarrival 256/0.04 = 6400 ns exceeds the calendar horizon, so
			// generation events take the far-heap path on the new engine.
			Subnet: uni42, Pattern: traffic.Uniform{Nodes: uni42.Tree.Nodes()},
			OfferedLoad: 0.04, WarmupNs: 10_000, MeasureNs: 80_000, Seed: 19,
		}},
	}
}

// scenarioCases exercise the model's stateful machinery on top of the plain
// goldens: a hotspot under store-and-forward, a live fault plan with SM
// repair and source reselection, the reliable transport riding over a
// mid-run outage (retransmits, duplicates, ACK/NAK control traffic), and
// the pluggable selectors (flowspray's per-flow pins, adaptive's congestion
// view, pktspray's per-flow rotation), and the in-band SM with trap loss and
// a master-SM outage under the transport. Their results are pinned in
// testdata/golden_results.txt with scenarioFingerprint and, field by field,
// with fieldLines.
func scenarioCases(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	mlid82 := mustSubnet(t, 8, 2, core.NewMLID())
	slid82 := mustSubnet(t, 8, 2, core.NewSLID())
	masterSw, masterPort := mlid82.Tree.NodeAttachment(0) // SMNodes' master
	return []struct {
		name string
		cfg  Config
	}{
		{"uniform", Config{
			Subnet: mlid82, Pattern: traffic.Uniform{Nodes: mlid82.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.5, WarmupNs: 10_000, MeasureNs: 40_000,
			SeriesIntervalNs: 10_000, CollectPortStats: true, Seed: 7,
		}},
		{"hotspot", Config{
			Subnet: mlid82, Pattern: traffic.Centric{Nodes: mlid82.Tree.Nodes(), Hotspot: 0, Fraction: 0.5},
			DataVLs: 4, OfferedLoad: 0.6, WarmupNs: 10_000, MeasureNs: 40_000,
			Switching: SwitchingSAF, Reception: ReceptionLink, Seed: 3,
		}},
		{"faults-reselect", Config{
			Subnet: slid82, Pattern: traffic.Uniform{Nodes: slid82.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.4, WarmupNs: 10_000, MeasureNs: 40_000,
			SeriesIntervalNs: 10_000, Seed: 11,
			FaultPlan: &FaultPlan{
				Faults: []LinkFault{
					{Switch: 0, Port: 1, DownNs: 12_000, UpNs: 32_000},
					{Switch: 9, Port: 3, DownNs: 18_000},
				},
				Reselect: true,
			},
			VerifyEpochs: true,
		}},
		{"transport-fault", Config{
			Subnet: mlid82, Pattern: traffic.Uniform{Nodes: mlid82.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.5, WarmupNs: 5_000, MeasureNs: 25_000,
			Seed: 19,
			FaultPlan: &FaultPlan{
				Faults: []LinkFault{{Switch: 2, Port: 0, DownNs: 8_000, UpNs: 20_000}},
			},
			VerifyEpochs: true,
			Transport:    &TransportConfig{MaxRetries: 2, DrainNs: 120_000},
		}},
		{"flowspray", Config{
			Subnet: mlid82, Pattern: traffic.Uniform{Nodes: mlid82.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.5, WarmupNs: 10_000, MeasureNs: 40_000,
			PathSelect: SelectFlowSpray(), Seed: 23,
		}},
		{"adaptive-faults", Config{
			Subnet: mlid82, Pattern: traffic.Centric{Nodes: mlid82.Tree.Nodes(), Hotspot: 5, Fraction: 0.4},
			DataVLs: 2, OfferedLoad: 0.5, WarmupNs: 10_000, MeasureNs: 40_000,
			SeriesIntervalNs: 10_000, PathSelect: SelectAdaptive(), Seed: 29,
			FaultPlan: &FaultPlan{
				Faults:   []LinkFault{{Switch: 4, Port: 4, DownNs: 15_000, UpNs: 35_000}},
				Reselect: true,
			},
			VerifyEpochs: true,
		}},
		{"pktspray-transport-fault", Config{
			Subnet: mlid82, Pattern: traffic.Uniform{Nodes: mlid82.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.5, WarmupNs: 5_000, MeasureNs: 25_000,
			PathSelect: SelectPktSpray(), Seed: 31,
			FaultPlan: &FaultPlan{
				Faults:   []LinkFault{{Switch: 2, Port: 0, DownNs: 8_000, UpNs: 20_000}},
				Reselect: true,
			},
			VerifyEpochs: true,
			Transport:    &TransportConfig{MaxRetries: 2, DrainNs: 120_000},
		}},
		{"inband-sm-failover-transport", Config{
			// The master SM's attachment dies mid-run (the standby takes over
			// at the next sweep, and node 0 is declared unreachable), a leaf
			// up-link dies for good, and a third of the traps are lost on top.
			Subnet: mlid82, Pattern: traffic.Uniform{Nodes: mlid82.Tree.Nodes()},
			DataVLs: 2, OfferedLoad: 0.4, WarmupNs: 5_000, MeasureNs: 35_000,
			SeriesIntervalNs: 5_000, Seed: 41,
			FaultPlan: &FaultPlan{
				Faults: []LinkFault{
					{Switch: int32(masterSw), Port: masterPort, DownNs: 12_000, UpNs: 30_000},
					{Switch: 4, Port: 5, DownNs: 18_000},
				},
				Reselect: true,
				InBandSM: &InBandSMConfig{SweepIntervalNs: 10_000, TrapLossProb: 0.3},
			},
			VerifyEpochs: true,
			Transport:    &TransportConfig{BaseTimeoutNs: 5_000, MaxRetries: 3, MaxTimeoutNs: 20_000, DrainNs: 60_000},
		}},
	}
}

// batchCases are the closed workloads pinned in testdata/golden_results.txt
// with batchFingerprint: the gather and the all-to-all exchange on FT(8,2),
// under both schemes, with 2 VLs.
func batchCases(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	slid82 := mustSubnet(t, 8, 2, core.NewSLID())
	mlid82 := mustSubnet(t, 8, 2, core.NewMLID())
	batch := func(sn *ib.Subnet, msgs []Message) Config {
		return Config{Subnet: sn, Messages: msgs, DataVLs: 2, Seed: 13}
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"batch-slid-8x2-gather-vl2", batch(slid82, Gather(slid82.Tree, 0, 2048))},
		{"batch-slid-8x2-alltoall-vl2", batch(slid82, AllToAll(slid82.Tree, 512))},
		{"batch-mlid-8x2-gather-vl2", batch(mlid82, Gather(mlid82.Tree, 0, 2048))},
		{"batch-mlid-8x2-alltoall-vl2", batch(mlid82, AllToAll(mlid82.Tree, 512))},
	}
}

// batchFingerprint compacts a BatchResult into one stable line.
func batchFingerprint(r BatchResult) string {
	return fmt.Sprintf("makespan=%d packets=%d bytes=%d mean_lat=%.6f events=%d",
		r.MakespanNs, r.Packets, r.Bytes, r.MeanLatencyNs, r.Events)
}

// testPlan is a profile-guided MLID path plan over sn's fabric: every pair
// with src < dst is planned, with weights skewed by the pair, and the reverse
// pairs are left to the scheme's canonical choice.
func testPlan(t *testing.T, sn *ib.Subnet) *core.PathPlan {
	t.Helper()
	var flows []traffic.Flow
	for src := 0; src < sn.Tree.Nodes(); src++ {
		for dst := src + 1; dst < sn.Tree.Nodes(); dst++ {
			flows = append(flows, traffic.Flow{
				Src: topology.NodeID(src), Dst: topology.NodeID(dst),
				Weight: float64(1 + (7*src+3*dst)%5),
			})
		}
	}
	plan, err := core.OptimizePaths(sn.Tree, core.NewMLID(), flows)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// planCases are the open-loop runs driven by testPlan, pinned with
// scenarioFingerprint: the plan on a healthy fabric, and the same plan under
// fault reselection with a leaf link down, whose reroutes and drops show the
// plan's choices failing over.
func planCases(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	sn := mustSubnet(t, 8, 2, core.NewMLID())
	cfg := Config{
		Subnet: sn, Pattern: traffic.Uniform{Nodes: sn.Tree.Nodes()},
		DataVLs: 2, OfferedLoad: 0.5, WarmupNs: 10_000, MeasureNs: 40_000,
		PathSelect: SelectPlan(testPlan(t, sn)), Seed: 37,
	}
	faulted := cfg
	faulted.FaultPlan = &FaultPlan{
		Faults:   []LinkFault{{Switch: 2, Port: 2, DownNs: 15_000, UpNs: 35_000}},
		Reselect: true,
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"plan-8x2-uniform", cfg},
		{"plan-8x2-uniform-faults-reselect", faulted},
	}
}

// fingerprint compacts a Result into a stable, human-diffable line set.
func fingerprint(r Result) string {
	return fmt.Sprintf(
		"accepted=%.9f mean_lat=%.6f p99=%.6f max=%.6f net_lat=%.6f "+
			"delivered=%d generated=%d total_del=%d total_gen=%d inflight=%d "+
			"events=%d end=%d ooo=%d max_util=%.9f mean_util=%.9f",
		r.Accepted, r.MeanLatencyNs, r.P99LatencyNs, r.MaxLatencyNs, r.MeanNetLatencyNs,
		r.DeliveredWindow, r.GeneratedWindow, r.TotalDelivered, r.TotalGenerated, r.InFlightAtEnd,
		r.Events, r.EndTime, r.OutOfOrder, r.MaxLinkUtilization, r.MeanLinkUtilization)
}

// scenarioFingerprint extends fingerprint with the fault, transport and
// verifier counters the scenario cases drive.
func scenarioFingerprint(r Result) string {
	return fingerprint(r) + fmt.Sprintf(
		" dropped=%d dropped_win=%d reroutes=%d rexmit=%d failed=%d dup=%d acks=%d naks=%d "+
			"lft_updates=%d lft_entries=%d verified_epochs=%d verify_warnings=%d",
		r.DroppedTotal, r.DroppedWindow, r.Reroutes, r.Retransmits, r.Failed, r.DupDeliveries,
		r.AcksSent, r.NaksSent, r.LFTUpdates, r.LFTEntriesRewritten, r.VerifiedEpochs, r.VerifyWarnings)
}

// fieldLines prints every scalar Result field by name, in declaration order,
// then one line per Series point and per PortStat, each prefixed by name: the
// whole Result except Traces, which no scenario case records.
func fieldLines(name string, r Result) []string {
	v := reflect.ValueOf(r)
	var b strings.Builder
	b.WriteString(name + " fields:")
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() == reflect.Slice {
			continue
		}
		fmt.Fprintf(&b, " %s=%v", v.Type().Field(i).Name, v.Field(i).Interface())
	}
	lines := []string{b.String()}
	for i, sp := range r.Series {
		lines = append(lines, fmt.Sprintf("%s series[%d]: %+v", name, i, sp))
	}
	for i, ps := range r.PortStats {
		lines = append(lines, fmt.Sprintf("%s ports[%d]: %+v", name, i, ps))
	}
	return lines
}

// TestGoldenDeterminism pins simulation results against fixtures recorded
// before the engine rewrite (goldenCases), the scenario fixtures
// (scenarioCases), the closed workloads (batchCases) and the path-plan runs
// (planCases), then every Result field of the scenario cases (fieldLines).
// Regenerate with -update.
func TestGoldenDeterminism(t *testing.T) {
	var lines []string
	for _, tc := range goldenCases(t) {
		res, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lines = append(lines, tc.name+": "+fingerprint(res))
	}
	var fields []string
	for _, tc := range scenarioCases(t) {
		res, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lines = append(lines, tc.name+": "+scenarioFingerprint(res))
		fields = append(fields, fieldLines(tc.name, res)...)
	}
	for _, tc := range batchCases(t) {
		res, err := RunBatch(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lines = append(lines, tc.name+": "+batchFingerprint(res))
	}
	for _, tc := range planCases(t) {
		res, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lines = append(lines, tc.name+": "+scenarioFingerprint(res))
	}
	lines = append(lines, fields...)
	got := strings.Join(lines, "\n") + "\n"

	golden.Check(t, filepath.Join("testdata", "golden_results.txt"), []byte(got))
}

// TestRunDeterminism requires a config to produce an identical Result
// field-by-field when run twice, on both scheduler paths: the default
// calendar+heap engine and the heap-only fallback (calendar disabled).
func TestRunDeterminism(t *testing.T) {
	sn := mustSubnet(t, 8, 2, core.NewMLID())
	cfg := Config{
		Subnet:  sn,
		Pattern: traffic.Centric{Nodes: sn.Tree.Nodes(), Hotspot: 0, Fraction: 0.5},
		DataVLs: 2, OfferedLoad: 0.5,
		WarmupNs: 10_000, MeasureNs: 50_000,
		TracePackets: 4, SeriesIntervalNs: 10_000,
		CollectPortStats: true, Seed: 5,
	}
	run := func() Result {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same config, different results:\n a: %+v\n b: %+v", a, b)
	}
	cfg.HeapOnlyScheduler = true
	heapOnly := run()
	if !reflect.DeepEqual(a, heapOnly) {
		t.Errorf("calendar and heap-only scheduler paths disagree:\n cal:  %s\n heap: %s",
			fingerprint(a), fingerprint(heapOnly))
	}
}

// TestScenarioDeterminism requires every scenario case to produce an
// identical Result field-by-field when run twice, and on both scheduler
// paths (calendar+heap and heap-only).
func TestScenarioDeterminism(t *testing.T) {
	for _, tc := range scenarioCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			run := func(heapOnly bool) Result {
				cfg := tc.cfg
				cfg.HeapOnlyScheduler = heapOnly
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("heapOnly=%t: %v", heapOnly, err)
				}
				return res
			}
			a := run(false)
			if a.TotalDelivered == 0 {
				t.Fatal("delivered nothing")
			}
			if b := run(false); !reflect.DeepEqual(a, b) {
				t.Errorf("same config, different results:\n a: %s\n b: %s",
					scenarioFingerprint(a), scenarioFingerprint(b))
			}
			if h := run(true); !reflect.DeepEqual(a, h) {
				t.Errorf("calendar and heap-only scheduler paths disagree:\n cal:  %s\n heap: %s",
					scenarioFingerprint(a), scenarioFingerprint(h))
			}
		})
	}
}

// TestShardDeterminismRepeated requires a config that still sets the
// deprecated Shards field to repeat bit-for-bit across runs: the shim must
// not leak any per-run state into the engine.
func TestShardDeterminismRepeated(t *testing.T) {
	cfg := scenarioCases(t)[0].cfg
	cfg.Shards = 1
	run := func() Result {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalDelivered == 0 {
		t.Fatal("delivered nothing")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same config with Shards=1, different results:\n a: %s\n b: %s",
			scenarioFingerprint(a), scenarioFingerprint(b))
	}
}

// TestDeprecatedShards pins the compatibility field: 0 and 1 run the one
// engine with identical results, and any other value fails loudly instead of
// being ignored.
func TestDeprecatedShards(t *testing.T) {
	cfg := scenarioCases(t)[0].cfg
	cfg.Shards = 1
	one, err := Run(cfg)
	if err != nil {
		t.Fatalf("Shards=1: %v", err)
	}
	cfg.Shards = 0
	if zero, err := Run(cfg); err != nil || !reflect.DeepEqual(zero, one) {
		t.Errorf("Shards=0 and Shards=1 disagree (err %v)", err)
	}
	for _, n := range []int{-1, 2, 8} {
		cfg.Shards = n
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "removed") {
			t.Errorf("Shards=%d: err = %v, want a rejection naming the removal", n, err)
		}
	}
}

// TestBatchDeterminism does the same for the closed-workload runner.
func TestBatchDeterminism(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	cfg := Config{
		Subnet:   sn,
		Messages: Gather(sn.Tree, 0, 2048),
		DataVLs:  2,
		Seed:     9,
	}
	run := func() BatchResult {
		res, err := RunBatch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same batch config, different results:\n a: %+v\n b: %+v", a, b)
	}
	cfg.HeapOnlyScheduler = true
	heapOnly := run()
	if a != heapOnly {
		t.Errorf("calendar and heap-only scheduler paths disagree:\n cal:  %+v\n heap: %+v", a, heapOnly)
	}
}
