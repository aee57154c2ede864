package verify_test

import (
	"runtime"
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/verify"
)

// TestVerifyEpochAllocs pins verify.Run's allocations on three inputs,
// warm and with two garbage collections before each Run; make race runs
// it under the race detector too. The per-run state comes from runPool,
// whose idle fabrics survive collections, and each finding is a typed
// record, rendered only when the report is read. A healthy FT(8,3) MLID
// Run (BenchmarkVerifyEpoch's input) allocates its report alone. One over
// the tables core.RepairSubnet left after a four-link fault, with 64
// capped warnings, adds the records array and the witness-channel array.
// The degraded study's static view, the one input with the quality pass
// on, adds the quality block and its max-link label, never one per traced
// flow.
func TestVerifyEpochAllocs(t *testing.T) {
	healthy, repaired, opt := epochInputs(t)
	static, staticOpt := staticInput(t)
	for _, c := range []struct {
		name string
		in   verify.Input
		opt  verify.Options
		want float64
	}{
		{"healthy", healthy, opt, 1},
		{"repaired", repaired, opt, 3},
		{"static-quality", static, staticOpt, 5},
	} {
		for _, gc := range []bool{false, true} {
			allocs := testing.AllocsPerRun(20, func() { // AllocsPerRun warms up with one run first
				if gc {
					runtime.GC()
					runtime.GC()
				}
				if _, err := verify.Run(c.in, c.opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.want {
				t.Errorf("%s, collections between Runs %v: %.0f allocations per Run, want <= %.0f", c.name, gc, allocs, c.want)
			}
		}
	}
}

// staticInput is the degraded study's static view of epochFaults on an
// FT(8,3) MLID fabric: the repair target core.RepairState computes, the
// dead links recorded, core.SelectLID choosing each source's DLID, 2 VLs,
// quality on.
func staticInput(t *testing.T) (verify.Input, verify.Options) {
	t.Helper()
	scheme := core.NewMLID()
	sn := configured(t, 8, 3, scheme)
	tr := sn.Tree
	fs, dead := epochFaults(tr)
	rs := core.NewRepairState(sn)
	if _, err := rs.RepairIncremental(fs, rs.DirtySwitches(core.NewFaultSet(), fs)); err != nil {
		t.Fatal(err)
	}
	lfts, err := rs.TargetLFTs()
	if err != nil {
		t.Fatal(err)
	}
	in := verify.Input{
		Tree:      tr,
		Endports:  sn.Endports,
		LFTs:      lfts,
		Engine:    scheme,
		DeadLinks: dead,
		SelectDLID: func(src, dst topology.NodeID) (ib.LID, bool) {
			return core.SelectLID(tr, scheme, src, dst, fs)
		},
	}
	opt := verify.Options{VLs: 2}
	rep, err := verify.Run(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 || rep.Warnings() == 0 || len(rep.Stats.Quality) != 1 {
		t.Fatalf("static view: %d errors, %d warnings, %d quality blocks; want 0, some, 1",
			rep.Errors(), rep.Warnings(), len(rep.Stats.Quality))
	}
	return in, opt
}
