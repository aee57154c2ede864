package sim

import (
	"reflect"
	"testing"

	"mlid/internal/core"
	"mlid/internal/traffic"
)

// inbandCfg is the in-band SM demo scenario: FT(4,2) under MLID with
// fault-avoiding reselection, the master SM on node 0 (leaf switch 2) and the
// standby on the defaulted node 7 (leaf switch 5).
func inbandCfg(t *testing.T, plan *FaultPlan) Config {
	t.Helper()
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	return Config{
		Subnet:  sn,
		Pattern: traffic.Uniform{Nodes: sn.Tree.Nodes()},
		DataVLs: 2, OfferedLoad: 0.3,
		WarmupNs: 20_000, MeasureNs: 100_000,
		SeriesIntervalNs: 5_000,
		FaultPlan:        plan,
		VerifyEpochs:     true,
		Seed:             21,
	}
}

// inbandTransport keeps retry cycles short so degradation and exhaustion fit
// inside the drain window.
func inbandTransport() *TransportConfig {
	return &TransportConfig{BaseTimeoutNs: 5_000, MaxRetries: 3, MaxTimeoutNs: 20_000}
}

// TestInBandSMOracleConvergence pins the in-band SM against the oracle on a
// repairable fault with a healthy management plane: the same link dies, the
// trap is delivered (no loss configured, live path to the SM), the repair
// travels as SMPs instead of fiat updates, and the resulting forwarding state
// converges to exactly the oracle's — same updates, same rewritten entries —
// just later (the management round-trips cost time the oracle skips).
func TestInBandSMOracleConvergence(t *testing.T) {
	// 52_000 keeps the fault off the 25k sweep cadence: on the grid, the
	// sweep tick at the same instant (scheduled later, higher seq) would
	// discover the fault with zero trap latency.
	fault := []LinkFault{{Switch: 2, Port: 2, DownNs: 52_000}}

	oracle, err := Run(inbandCfg(t, &FaultPlan{Faults: fault, Reselect: true}))
	if err != nil {
		t.Fatal(err)
	}
	inband, err := Run(inbandCfg(t, &FaultPlan{Faults: fault, Reselect: true, InBandSM: &InBandSMConfig{}}))
	if err != nil {
		t.Fatal(err)
	}

	if oracle.LFTUpdates == 0 {
		t.Fatal("oracle scenario staged no updates; the scenario is broken")
	}
	if inband.LFTUpdates != oracle.LFTUpdates || inband.LFTEntriesRewritten != oracle.LFTEntriesRewritten {
		t.Errorf("in-band repair diverged from oracle: updates %d/%d, entries %d/%d",
			inband.LFTUpdates, oracle.LFTUpdates, inband.LFTEntriesRewritten, oracle.LFTEntriesRewritten)
	}
	if inband.TrapsSent == 0 || inband.TrapsDelivered != inband.TrapsSent || inband.TrapsLost != 0 {
		t.Errorf("healthy management plane must deliver every trap: sent=%d delivered=%d lost=%d",
			inband.TrapsSent, inband.TrapsDelivered, inband.TrapsLost)
	}
	if inband.SMPsSent < inband.LFTUpdates {
		t.Errorf("SMPsSent = %d < applied updates %d", inband.SMPsSent, inband.LFTUpdates)
	}
	if inband.RecoveryNs <= oracle.RecoveryNs {
		t.Errorf("in-band recovery (%d ns) not slower than the oracle's (%d ns); "+
			"management round-trips cost nothing?", inband.RecoveryNs, oracle.RecoveryNs)
	}
	if oracle.TrapsSent != 0 || oracle.SMSweeps != 0 || oracle.SMPsSent != 0 {
		t.Errorf("oracle run leaked in-band counters: %+v", oracle)
	}
}

// TestInBandSMLostTrapSweepRecovery is the lost-trap regression of the issue:
// a leaf's up-links and one node attachment die at the same instant. The
// up-link traps reach the SM via the spine-side peer reporters, but the
// attachment trap's only path crosses the dead up-links and its peer is the
// node itself — the trap is lost, and only the periodic sweep's port-state
// diff recovers the knowledge, within one interval. Repair cannot reconnect
// the severed leaf, so the SM emits a partition finding and sources drain
// flows to the unreachable nodes instead of burning retries.
func TestInBandSMLostTrapSweepRecovery(t *testing.T) {
	const downNs = 52_000 // off the sweep cadence, so traps race no tick
	plan := &FaultPlan{
		Faults: []LinkFault{
			{Switch: 3, Port: 2, DownNs: downNs}, // both up-links of leaf 3...
			{Switch: 3, Port: 3, DownNs: downNs},
			{Switch: 3, Port: 1, DownNs: downNs}, // ...and node 3's attachment
		},
		Reselect: true,
		InBandSM: &InBandSMConfig{},
	}
	cfg := inbandCfg(t, plan)
	cfg.Transport = inbandTransport()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if res.TrapsSent != 3 || res.TrapsLost != 1 || res.TrapsDelivered != 2 {
		t.Errorf("traps sent/lost/delivered = %d/%d/%d, want 3/1/2 (only the attachment trap dies)",
			res.TrapsSent, res.TrapsLost, res.TrapsDelivered)
	}
	if res.SMSweeps == 0 {
		t.Fatal("no sweeps ran")
	}
	if res.SweepDetections != 1 {
		t.Errorf("SweepDetections = %d, want exactly 1: the first sweep after the fault "+
			"recovers the lost attachment knowledge, later sweeps find nothing new", res.SweepDetections)
	}
	if res.PartitionEvents != 1 {
		t.Errorf("PartitionEvents = %d, want 1 (the isolated leaf partitions the fabric once)",
			res.PartitionEvents)
	}
	if res.Failovers != 0 {
		t.Errorf("Failovers = %d, want 0 (both SM attachments stay alive)", res.Failovers)
	}
	// SMPs to the isolated leaf cannot be delivered: their transactions must
	// exhaust the retry budget (and park for sweep re-drives).
	if res.SMPsSent == 0 || res.SMPFailed == 0 {
		t.Errorf("expected undeliverable SMP transactions to exhaust retries: sent=%d failed=%d",
			res.SMPsSent, res.SMPFailed)
	}
	if res.SMPRetries == 0 {
		t.Errorf("expected SMP retransmissions, got none")
	}
	if res.UnreachableDegraded == 0 {
		t.Error("no packets were written off by partition-aware degradation")
	}
	// The partition verdict lands ~5k ns after the fault — far before any
	// retry budget (~35k ns of backoff) could burn out — so degradation
	// should have spared every doomed flow from exhausting as Failed.
	if res.Failed != 0 {
		t.Errorf("Failed = %d; unreachable flows should drain, not exhaust", res.Failed)
	}
	if got := res.TotalDelivered + res.Failed + res.UnreachableDegraded + res.InFlightAtEnd; got != res.TotalGenerated {
		t.Errorf("packet conservation: delivered+failed+unreachable+inflight = %d, generated = %d",
			got, res.TotalGenerated)
	}
	var seriesUnreachable int64
	for _, sp := range res.Series {
		seriesUnreachable += sp.Unreachable
	}
	if seriesUnreachable == 0 {
		t.Error("degradation never showed up in the measurement-window series")
	}
	if seriesUnreachable > res.UnreachableDegraded {
		t.Errorf("series counted %d unreachable > total %d", seriesUnreachable, res.UnreachableDegraded)
	}
}

// TestInBandSMSweepOnlyRecovery silences every trap (TrapLossProb 1): the SM
// then learns of faults exclusively through sweep diffs, and recovery still
// converges to the oracle's table state.
func TestInBandSMSweepOnlyRecovery(t *testing.T) {
	fault := []LinkFault{{Switch: 2, Port: 2, DownNs: 52_000}} // off the sweep cadence
	oracle, err := Run(inbandCfg(t, &FaultPlan{Faults: fault, Reselect: true}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(inbandCfg(t, &FaultPlan{
		Faults: fault, Reselect: true,
		InBandSM: &InBandSMConfig{TrapLossProb: 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.TrapsLost != res.TrapsSent || res.TrapsDelivered != 0 {
		t.Errorf("TrapLossProb 1 must lose every trap: sent=%d lost=%d delivered=%d",
			res.TrapsSent, res.TrapsLost, res.TrapsDelivered)
	}
	if res.SweepDetections == 0 {
		t.Fatal("sweep never detected the fault the lost traps hid")
	}
	if res.LFTUpdates != oracle.LFTUpdates || res.LFTEntriesRewritten != oracle.LFTEntriesRewritten {
		t.Errorf("sweep-only repair diverged from oracle: updates %d/%d, entries %d/%d",
			res.LFTUpdates, oracle.LFTUpdates, res.LFTEntriesRewritten, oracle.LFTEntriesRewritten)
	}
	// Recovery waits for the sweep: strictly slower than trap-driven repair
	// would have been (the fault lands mid-interval).
	if res.RecoveryNs <= oracle.RecoveryNs {
		t.Errorf("sweep-only recovery (%d ns) not slower than oracle (%d ns)",
			res.RecoveryNs, oracle.RecoveryNs)
	}
}

// TestInBandSMFailoverDeterminism kills the master SM's own leaf switch: the
// outage silences every trap (the active SM's attachment is down), the next
// sweep fails over to the standby, which repairs what it discovers; the
// master's later revival must NOT flap mastership back. The scenario must be
// bit-identical run to run and on both scheduler paths.
func TestInBandSMFailoverDeterminism(t *testing.T) {
	plan := &FaultPlan{
		SwitchFaults: []SwitchFault{{Switch: 2, DownNs: 60_000, UpNs: 90_000}},
		Reselect:     true,
		InBandSM:     &InBandSMConfig{},
	}
	cfg := inbandCfg(t, plan)
	cfg.Transport = inbandTransport()
	cfg.VerifyEpochs = false // keep the repeated runs fast

	run := func() Result {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ref := run()
	if ref.Failovers != 1 {
		t.Fatalf("Failovers = %d, want exactly 1 (takeover at the sweep, sticky through revival)", ref.Failovers)
	}
	if ref.TrapsLost == 0 {
		t.Errorf("outage-time traps must be lost while the active SM is cut off")
	}
	if ref.SweepDetections == 0 {
		t.Errorf("the standby's sweep never discovered the outage")
	}
	if got := ref.TotalDelivered + ref.Failed + ref.UnreachableDegraded + ref.InFlightAtEnd; got != ref.TotalGenerated {
		t.Errorf("packet conservation: delivered+failed+unreachable+inflight = %d, generated = %d",
			got, ref.TotalGenerated)
	}

	if got := run(); !reflect.DeepEqual(ref, got) {
		t.Errorf("same config, different results:\n ref: %s\n got: %s",
			fingerprint(ref), fingerprint(got))
	}
	cfg.HeapOnlyScheduler = true
	if got := run(); !reflect.DeepEqual(ref, got) {
		t.Errorf("heap-only engine diverged:\n ref: %s\n got: %s",
			fingerprint(ref), fingerprint(got))
	}
}

// TestInBandSMOffMatchesOracleExactly guards the off-by-default contract: a
// FaultPlan without InBandSM must produce bit-identical results to the same
// plan before this subsystem existed — which TestGoldenDeterminism and the
// fault suite pin — and a nil-plan run must carry zeroed SM counters.
func TestInBandSMOffMatchesOracleExactly(t *testing.T) {
	cfg := inbandCfg(t, &FaultPlan{
		Faults:   []LinkFault{{Switch: 2, Port: 2, DownNs: 50_000}},
		Reselect: true,
	})
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("oracle fault run not deterministic")
	}
	if a.TrapsSent != 0 || a.SMSweeps != 0 || a.SMPsSent != 0 || a.Failovers != 0 ||
		a.PartitionEvents != 0 || a.UnreachableDegraded != 0 {
		t.Errorf("in-band counters leaked into an oracle run: %+v", a)
	}
}

// TestInBandSMValidation exercises the configuration contract.
func TestInBandSMValidation(t *testing.T) {
	cases := []struct {
		name string
		m, n int
		sm   InBandSMConfig
		want string
	}{
		// FT(4,1) is a single switch: the master (node 0) and the standby
		// (the last node) share it, so one outage would silence both.
		{"shared leaf", 4, 1, InBandSMConfig{}, "share leaf switch"},
		{"bad loss", 4, 2, InBandSMConfig{TrapLossProb: 1.5}, "TrapLossProb"},
		{"bad sweep", 4, 2, InBandSMConfig{SweepIntervalNs: -1}, "SweepIntervalNs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sm := tc.sm
			sn := mustSubnet(t, tc.m, tc.n, core.NewMLID())
			_, err := Run(Config{
				Subnet:      sn,
				Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
				OfferedLoad: 0.3,
				MeasureNs:   100_000,
				FaultPlan: &FaultPlan{
					Faults:   []LinkFault{{Switch: 0, Port: 0, DownNs: 50_000}},
					InBandSM: &sm,
				},
			})
			if err == nil {
				t.Fatalf("config %+v on FT(%d,%d) validated", tc.sm, tc.m, tc.n)
			}
			if !containsStr(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
