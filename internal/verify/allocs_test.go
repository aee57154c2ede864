package verify_test

import (
	"runtime"
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/verify"
)

// TestVerifyEpochAllocs pins the allocations of one per-epoch Run on
// BenchmarkVerifyEpoch's inputs, warm and with two garbage collections
// before each Run. Before Run recycled its state it built the neighbor,
// dead-link and owner tables, the walk's claim and dependency bitsets, the
// adjacency lists and the cycle-search arrays afresh: 33 allocations
// healthy, 512 repaired. With the state kept a healthy Run allocates 1 (the
// report). A repaired one allocated 466 while each finding formatted its
// own location and witness labels and the findings slice grew by appending;
// with the labels read from the recycled fabric's table and the findings
// and witnesses copied out once at exact size it allocates 67: the report,
// its 64 warnings' messages, one findings array and one witness array.
//
// The third input is the degraded study's static view, the one Run with the
// quality pass on: the same fault repaired by core.RepairState, sources
// choosing fault-avoiding DLIDs through core.SelectLID. It allocates 79
// (479 before the same change): the report, its 64 capped warnings and the
// quality block, never one per traced flow. Its quality finding was once
// formatted by fmt.Sprintf, whose printer sync.Pool the collections empty
// and the race detector thins: 88 after them. Built with strconv into a
// stack buffer, it costs 79 in every mode. An arena pool that the
// collections empty costs a healthy Run 26 allocations, a repaired one 132
// and a static one 154.
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
		{"repaired", repaired, opt, 67},
		{"static-quality", static, staticOpt, 79},
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
	if _, err := rs.RepairIncremental(fs, rs.DirtySwitches(nil, dead)); err != nil {
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
