// Layer benchmarks over the public facade: subnet bring-up, route tracing,
// the simulator and batch engines, repair and SM recovery. The paper's
// figures are timed end to end by bench/ (workload figs_quick), Table 1 is
// pinned by TestTable1, and the static link-load analysis is benchmarked
// beside it in internal/verify (BenchmarkLinkLoad).
package mlid_test

import (
	"fmt"
	"testing"

	"mlid"
)

// BenchmarkSubnetConfigure measures the subnet manager bring-up (discovery,
// LID assignment, forwarding-table computation) per scheme and network.
func BenchmarkSubnetConfigure(b *testing.B) {
	for _, nw := range mlid.EvalNetworks() {
		tree, err := mlid.NewTree(nw.M, nw.N)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range mlid.Schemes() {
			b.Run(fmt.Sprintf("%s/%s", nw, s.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := mlid.Configure(tree, s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTrace measures per-route path resolution.
func BenchmarkTrace(b *testing.B) {
	tree, _ := mlid.NewTree(16, 2)
	for _, s := range mlid.Schemes() {
		b.Run(s.Name(), func(b *testing.B) {
			n := tree.Nodes()
			for i := 0; i < b.N; i++ {
				src := mlid.NodeID(i % n)
				dst := mlid.NodeID((i*7 + 1) % n)
				if src == dst {
					dst = (dst + 1) % mlid.NodeID(n)
				}
				if _, err := mlid.Trace(tree, s, src, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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

// BenchmarkSMRecovery measures trap-to-staged-delta latency over a realistic
// SM episode: eight traps arrive one by one (each growing the dead-link
// set), then the links revive. The incremental variant is the simulator's
// live path — a persistent RepairState evolved per trap; fullscan replicates
// the pre-incremental algorithm (clone every table, repair from scratch,
// diff the whole LID space against the previous shadow), the O(switches x
// LID-space) cost the rewrite removed.
func BenchmarkSMRecovery(b *testing.B) {
	for _, net := range [][2]int{{8, 3}, {16, 2}, {32, 2}} {
		m, n := net[0], net[1]
		tree, err := mlid.NewTree(m, n)
		if err != nil {
			b.Fatal(err)
		}
		sn, err := mlid.Configure(tree, mlid.MLID())
		if err != nil {
			b.Fatal(err)
		}
		// Eight links on distinct leaves, failed cumulatively, then all
		// revived: the dead-set views one episode steps through.
		links := make([][2]int32, 8)
		stride := tree.Nodes() / 8
		for i := range links {
			leaf, _ := tree.NodeAttachment(mlid.NodeID(i * stride))
			links[i] = [2]int32{int32(leaf), int32(tree.H())}
		}
		views := make([][][2]int32, 0, len(links)+1)
		for i := 1; i <= len(links); i++ {
			views = append(views, links[:i])
		}
		views = append(views, nil)
		faultsOf := func(view [][2]int32) *mlid.FaultSet {
			fs := mlid.NewFaultSet()
			for _, e := range view {
				fs.FailLink(tree, mlid.SwitchID(e[0]), int(e[1]))
			}
			return fs
		}
		name := fmt.Sprintf("%d-port_%d-tree", m, n)
		b.Run(name+"/incremental", func(b *testing.B) {
			st := mlid.NewRepairState(sn)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var prev [][2]int32
				for _, view := range views {
					if _, err := st.RepairIncremental(faultsOf(view), st.DirtySwitches(prev, view)); err != nil {
						b.Fatal(err)
					}
					prev = view
				}
			}
		})
		b.Run(name+"/fullscan", func(b *testing.B) {
			diffs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shadow := make([]*mlid.LFT, len(sn.LFTs))
				copy(shadow, sn.LFTs)
				for _, view := range views {
					work := &mlid.Subnet{Tree: sn.Tree, Engine: sn.Engine, Endports: sn.Endports,
						LFTs: make([]*mlid.LFT, len(sn.LFTs))}
					for s, l := range sn.LFTs {
						work.LFTs[s] = l.Clone()
					}
					if _, _, err := mlid.RepairSubnet(work, faultsOf(view)); err != nil {
						b.Fatal(err)
					}
					for s, l := range work.LFTs {
						old := shadow[s]
						for lid := 1; lid < l.Size(); lid++ {
							if old.Port(mlid.LID(lid)) != l.Port(mlid.LID(lid)) {
								diffs++
							}
						}
					}
					shadow = work.LFTs
				}
			}
			if diffs < 0 {
				b.Fatal("impossible")
			}
		})
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
