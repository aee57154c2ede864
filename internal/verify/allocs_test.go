//go:build !race

// The race detector makes sync.Pool drop a random share of the state put
// back, so allocation counts are only meaningful without it.

package verify_test

import (
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/verify"
)

// TestVerifyEpochAllocs bounds the allocations of one per-epoch Run on
// BenchmarkVerifyEpoch's inputs. Before Run recycled its state it built the
// neighbor, dead-link and owner tables, the walk's claim and dependency
// bitsets, the adjacency lists and the cycle-search arrays afresh: 33
// allocations healthy, 512 repaired. With the state pooled a healthy Run
// allocates 1 (the report), and a repaired one 466: the report and its
// formatted findings' messages, locations and witnesses.
//
// The third input is the degraded study's static view, the one Run with the
// quality pass on: the same fault repaired by core.RepairState, sources
// choosing fault-avoiding DLIDs through core.SelectLID. It allocates 479:
// the report, its 64 capped warnings and the quality block, never one per
// traced flow. The bounds leave room for a GC that empties the pool
// mid-measurement.
func TestVerifyEpochAllocs(t *testing.T) {
	healthy, repaired, opt := epochInputs(t)
	static, staticOpt := staticInput(t)
	for _, c := range []struct {
		name  string
		in    verify.Input
		opt   verify.Options
		bound float64
	}{
		{"healthy", healthy, opt, 33 / 2},
		{"repaired", repaired, opt, 466 + 33/2},
		{"static-quality", static, staticOpt, 479 + 33/2},
	} {
		allocs := testing.AllocsPerRun(5, func() { // AllocsPerRun warms up with one run first
			if _, err := verify.Run(c.in, c.opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.bound {
			t.Errorf("%s: %.0f allocations per Run, want <= %.0f", c.name, allocs, c.bound)
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
