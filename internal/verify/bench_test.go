package verify_test

import (
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/traffic"
	"mlid/internal/verify"
)

// BenchmarkVerifyEpoch measures one per-epoch static verification, the
// pass sim.Config.VerifyEpochs runs at every SM epoch, on epochInputs:
// FT(8,3) MLID with 2 VLs mapped by DLID, quality skipped. healthy verifies
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
