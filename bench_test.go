// Benchmarks over the public facade: the simulator and batch engines,
// repair and fault-aware path selection. The paper's figures are timed end
// to end by bench/ (workload figs_quick) and Table 1 is pinned by
// TestTable1. The layer benchmarks live beside the code they measure: route
// tracing, incremental repair and SM recovery in internal/core
// (BenchmarkTrace, BenchmarkRepairIncremental, BenchmarkSMRecovery),
// subnet configuration in internal/ib (BenchmarkSubnetConfigure) and the
// static verifier in internal/verify (BenchmarkVerifyEpoch,
// BenchmarkLinkLoad).
package mlid_test

import (
	"testing"

	"mlid"
)

// BenchmarkSimulatorThroughput measures raw event-processing speed of the
// discrete-event engine on a mid-size network at high load.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tree, _ := mlid.NewTree(8, 3)
	sn, err := mlid.Configure(tree, mlid.MLID())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := mlid.Simulate(mlid.SimConfig{
			Subnet:      sn,
			Pattern:     mlid.UniformTraffic(tree.Nodes()),
			OfferedLoad: 0.6,
			WarmupNs:    10_000,
			MeasureNs:   50_000,
			Seed:        int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkRepairSubnet measures switch-level forwarding-table repair.
func BenchmarkRepairSubnet(b *testing.B) {
	tree, _ := mlid.NewTree(8, 3)
	faults := mlid.NewFaultSet()
	leaf, _ := tree.NodeAttachment(0)
	faults.FailLink(tree, leaf, tree.H())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sn, err := mlid.Configure(tree, mlid.MLID())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := mlid.RepairSubnet(sn, faults); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchGather measures the all-to-one collective's makespan per
// scheme — the paper's congestion scenario as a closed workload.
func BenchmarkBatchGather(b *testing.B) {
	tree, _ := mlid.NewTree(8, 2)
	for _, s := range mlid.Schemes() {
		sn, err := mlid.Configure(tree, s)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.Name(), func(b *testing.B) {
			var makespan int64
			for i := 0; i < b.N; i++ {
				res, err := mlid.SimulateBatch(mlid.SimConfig{
					Subnet:   sn,
					Messages: mlid.GatherMessages(tree, 0, 4096),
					Seed:     1,
				})
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.MakespanNs
			}
			b.ReportMetric(float64(makespan), "makespan_ns")
		})
	}
}

// BenchmarkBatchAllToAll measures the personalized exchange's makespan.
func BenchmarkBatchAllToAll(b *testing.B) {
	tree, _ := mlid.NewTree(8, 2)
	for _, s := range mlid.Schemes() {
		sn, err := mlid.Configure(tree, s)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.Name(), func(b *testing.B) {
			var makespan int64
			for i := 0; i < b.N; i++ {
				res, err := mlid.SimulateBatch(mlid.SimConfig{
					Subnet:   sn,
					Messages: mlid.AllToAllMessages(tree, 1024),
					Seed:     1,
				})
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.MakespanNs
			}
			b.ReportMetric(float64(makespan), "makespan_ns")
		})
	}
}

// BenchmarkFaultReroute measures LMC-multipath failover path selection under
// injected faults (experiment EX-E).
func BenchmarkFaultReroute(b *testing.B) {
	tree, _ := mlid.NewTree(8, 3)
	faults := mlid.NewFaultSet()
	// Fail the canonical first ascending hop of node 0 -> far node.
	far := mlid.NodeID(tree.Nodes() - 1)
	p, err := mlid.Trace(tree, mlid.MLID(), 0, far)
	if err != nil {
		b.Fatal(err)
	}
	faults.FailLink(tree, p.Hops[0].Switch, p.Hops[0].OutPort)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := mlid.SelectDLID(tree, mlid.MLID(), 0, far, faults); !ok {
			b.Fatal("no surviving path")
		}
	}
}
