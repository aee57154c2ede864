// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// per table and figure, plus the extension studies DESIGN.md calls out; the
// ablation suite runs as experiment.RunAblations (`ibreport -ablations`).
//
// The figure benchmarks run reduced sweeps (two load points, two VL counts)
// so a default `go test -bench=.` completes in minutes; cmd/ibsweep runs the
// full-fidelity sweeps. Each figure benchmark reports, via b.ReportMetric:
//
//	mlid_peak_Bns / slid_peak_Bns — peak accepted traffic per scheme
//	mlid_over_slid               — the throughput ratio behind the paper's
//	                               Observations 1, 3 and 5
package mlid_test

import (
	"fmt"
	"testing"

	"mlid"
)

// benchFigure runs a reduced version of one evaluation figure.
func benchFigure(b *testing.B, id string) {
	spec, err := mlid.EvalFigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	// Reduce cost: two loads spanning the knee, the 1-VL and 4-VL curves,
	// shorter windows. Shapes (who wins, by what factor) are preserved.
	spec.Loads = []float64{0.3, 0.7}
	spec.VLs = []int{1, 4}
	spec.WarmupNs = 20_000
	spec.MeasureNs = 60_000

	var fig mlid.EvalFigure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err = spec.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := fig.Curve("MLID 1VL").PeakAccepted()
	s := fig.Curve("SLID 1VL").PeakAccepted()
	b.ReportMetric(m, "mlid_peak_Bns")
	b.ReportMetric(s, "slid_peak_Bns")
	if s > 0 {
		b.ReportMetric(m/s, "mlid_over_slid")
	}
}

// BenchmarkFigUniform regenerates figures F1..F4: latency vs accepted
// traffic under uniform traffic on the four evaluation networks.
func BenchmarkFigUniform(b *testing.B) {
	for i, nw := range mlid.EvalNetworks() {
		id := fmt.Sprintf("F%d", i+1)
		b.Run(nw.String(), func(b *testing.B) {
			benchFigure(b, id)
		})
	}
}

// BenchmarkFigCentric regenerates figures F5..F8: the 50%-centric hotspot
// pattern on the four evaluation networks.
func BenchmarkFigCentric(b *testing.B) {
	for i, nw := range mlid.EvalNetworks() {
		id := fmt.Sprintf("F%d", i+5)
		b.Run(nw.String(), func(b *testing.B) {
			benchFigure(b, id)
		})
	}
}

// BenchmarkTable1 regenerates Table 1 (network configurations and MLID
// addressing parameters).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := mlid.EvalTable1(mlid.EvalNetworks())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

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

// BenchmarkLinkLoad measures the static analysis on the all-to-one matrix
// (experiment EX-D).
func BenchmarkLinkLoad(b *testing.B) {
	tree, _ := mlid.NewTree(8, 3)
	flows := mlid.AllToOne(tree, 0)
	for _, s := range mlid.Schemes() {
		b.Run(s.Name(), func(b *testing.B) {
			var maxLoad float64
			for i := 0; i < b.N; i++ {
				rep, err := mlid.LinkLoad(tree, s, flows)
				if err != nil {
					b.Fatal(err)
				}
				maxLoad = rep.Max
			}
			b.ReportMetric(maxLoad, "max_link_load")
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
