package sim

import (
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
)

// TestVerifyEpochsCleanRun: the fault suite's demo scenario with epoch
// verification on must complete with one verifier pass per SM epoch (the
// trap sweep plus every applied staged update) and only dead-link-explained
// warnings — the broken descending entries RepairSubnet documents — never an
// error.
func TestVerifyEpochsCleanRun(t *testing.T) {
	plan := &FaultPlan{
		Faults:   []LinkFault{{Switch: 2, Port: 2, DownNs: 50_000}},
		Reselect: true,
	}
	cfg := faultCfg(t, core.NewMLID(), plan)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One trap plus at least one applied table update.
	if res.VerifiedEpochs < 2 {
		t.Fatalf("VerifiedEpochs = %d, want >= 2 (trap + staged updates)", res.VerifiedEpochs)
	}
	if res.VerifiedEpochs != int(res.LFTUpdates)+1 {
		t.Errorf("VerifiedEpochs = %d, want LFTUpdates+1 = %d", res.VerifiedEpochs, res.LFTUpdates+1)
	}
	// The spine's descending entries to the severed leaf stay broken: every
	// verified epoch after the fault sees them as dead-link warnings.
	if res.VerifyWarnings == 0 {
		t.Error("VerifyWarnings = 0: the broken descending entries went unreported")
	}
}

// TestVerifyEpochCatchesCorruptedTable corrupts a live forwarding table into
// a dead end before invoking the epoch verifier directly: the run must fail
// with the finding, proving error-severity findings abort the run rather
// than turning into silent packet loss.
func TestVerifyEpochCatchesCorruptedTable(t *testing.T) {
	cfg := faultCfg(t, core.NewMLID(), &FaultPlan{
		Faults: []LinkFault{{Switch: 2, Port: 2, DownNs: 50_000}},
	})
	s := build(cfg.withDefaults())
	// Erase the destination leaf's entry for node 0's base LID: an owned,
	// healthy LID with no forwarding entry is a dead end no fault explains.
	lid := cfg.Subnet.Endports[0].Base
	sw, _ := cfg.Subnet.Tree.NodeAttachment(0)
	if err := s.lfts[sw].Set(lid, ib.PortNone); err != nil {
		t.Fatal(err)
	}
	s.verifyEpoch()
	if s.err == nil || !strings.Contains(s.err.Error(), "dead end") {
		t.Fatalf("corrupted table not caught: err = %v", s.err)
	}
}

// TestVerifyEpochCatchesStaleCompiledRow desynchronizes one compiled
// forwarding entry from its live table: the cross-check must fail the run.
// This is the guard on applyLFTUpdate's entry-wise recompile — the hot path
// reads only the compiled rows, so nothing else ties them back to the LFTs.
func TestVerifyEpochCatchesStaleCompiledRow(t *testing.T) {
	cfg := faultCfg(t, core.NewMLID(), &FaultPlan{
		Faults: []LinkFault{{Switch: 2, Port: 2, DownNs: 50_000}},
	})
	s := build(cfg.withDefaults())
	lid := cfg.Subnet.Endports[0].Base
	sw, _ := cfg.Subnet.Tree.NodeAttachment(0)
	idx := int(sw)*s.lftSize + int(lid)
	want := s.fwdAt(idx)
	s.setFwd(idx, want+1) // a different (still in-range) port id
	s.verifyEpoch()
	if s.err == nil || !strings.Contains(s.err.Error(), "stale") {
		t.Fatalf("stale compiled row not caught: err = %v", s.err)
	}
}

// TestCompiledRowsRecompileMatchesFromScratch drives the fault machinery's
// staged table updates (no traffic needed) and then proves the entry-wise
// recompile path left the compiled rows exactly equal to a from-scratch
// compile of the post-repair tables.
func TestCompiledRowsRecompileMatchesFromScratch(t *testing.T) {
	cfg := faultCfg(t, core.NewMLID(), &FaultPlan{
		Faults: []LinkFault{
			{Switch: 2, Port: 2, DownNs: 30_000},
			{Switch: 3, Port: 3, DownNs: 45_000, UpNs: 70_000},
		},
	})
	cfg = cfg.withDefaults()
	s := build(cfg)
	s.end = cfg.WarmupNs + cfg.MeasureNs
	s.scheduleFaults()
	s.runUntil(s.end)
	if s.err != nil {
		t.Fatal(s.err)
	}
	if s.res.LFTUpdates == 0 {
		t.Fatal("no staged updates applied: the scenario exercises nothing")
	}
	// Snapshot the incrementally-recompiled rows, rebuild every switch from
	// its live table, and demand bit-identical results.
	n := len(s.lfts) * s.lftSize
	got := make([]int32, n)
	for i := 0; i < n; i++ {
		got[i] = s.fwdAt(i)
	}
	for sw := range s.lfts {
		s.compileLFT(int32(sw))
	}
	for i := 0; i < n; i++ {
		if want := s.fwdAt(i); got[i] != want {
			sw, lid := i/s.lftSize, i%s.lftSize
			t.Fatalf("switch %d DLID %d: incremental recompile holds %d, from-scratch %d",
				sw, lid, got[i], want)
		}
	}
}
