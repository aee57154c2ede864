package verify_test

import (
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/traffic"
	"mlid/internal/verify"
)

// BenchmarkVerifyEpoch measures one full safety pass of verify.Run — the
// pass an SM epoch falls back to when verify.Epochs finds the fabric
// unclean — on epochInputs: FT(8,3) MLID with 2 VLs mapped by DLID,
// quality skipped. healthy verifies
// the configured tables; repaired verifies the tables core.RepairSubnet
// leaves after a fixed four-link fault, whose broken descending entries are
// warnings. Work is one walk per (leaf, assigned LID) route, reported as
// routes/op.
func BenchmarkVerifyEpoch(b *testing.B) {
	healthy, repaired, opt := epochInputs(b)
	for _, c := range []struct {
		name string
		in   verify.Input
	}{{"healthy", healthy}, {"repaired", repaired}} {
		b.Run(c.name, func(b *testing.B) {
			var rep *verify.Report
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = verify.Run(c.in, opt); err != nil {
					b.Fatal(err)
				}
			}
			if rep.Errors() != 0 {
				b.Fatalf("%d error findings", rep.Errors())
			}
			b.ReportMetric(float64(rep.Stats.RoutesChecked), "routes/op")
		})
	}
}

// BenchmarkLinkLoad measures the quality pass on the all-to-one matrix
// toward node 0 of FT(8,3), per scheme (experiment EX-D): one verify.Run
// over the configured tables, reporting the inter-switch maximum load the
// pass finds.
func BenchmarkLinkLoad(b *testing.B) {
	for _, eng := range []ib.RoutingEngine{core.NewSLID(), core.NewMLID()} {
		sn := configured(b, 8, 3, eng)
		opt := verify.Options{Flows: traffic.AllToOne(sn.Tree, 0)}
		b.Run(eng.Name(), func(b *testing.B) {
			var rep *verify.Report
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = verify.Run(verify.FromSubnet(sn), opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Stats.Quality[0].MaxLoad, "max_link_load")
		})
	}
}

// BenchmarkEpochVerify measures one SM epoch's verification after a
// one-link change on epochInputs' repaired FT(8,3) MLID fabric (2 VLs
// mapped by DLID): each iteration takes a leaf up-link down, or back up,
// and verifies the new epoch. incremental reports the change to a seeded
// verify.Epochs and checks, re-walking only the LIDs the tables at the
// link's ends forward over it; full runs verify.Run over every route, as
// each epoch did before.
func BenchmarkEpochVerify(b *testing.B) {
	_, repaired, opt := epochInputs(b)
	tr := repaired.Tree
	leaf, _ := tr.NodeAttachment(5)
	link := [2]int32{int32(leaf), int32(tr.H())} // a live up-link
	base := repaired.DeadLinks
	toggle := func(i int) verify.Input {
		in := repaired
		if i%2 == 0 {
			in.DeadLinks = append(base[:len(base):len(base)], link)
		}
		return in
	}
	b.Run("incremental", func(b *testing.B) {
		var e verify.Epochs
		if _, _, err := e.Check(repaired, opt); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.TouchLink(link[0], int(link[1]))
			_, clean, err := e.Check(toggle(i), opt)
			if err != nil || !clean {
				b.Fatalf("epoch %d: clean %v, err %v", i, clean, err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := verify.Run(toggle(i), opt)
			if err != nil || rep.Errors() != 0 {
				b.Fatalf("epoch %d: %v errors, err %v", i, rep, err)
			}
		}
	})
}
