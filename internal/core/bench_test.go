package core

import (
	"fmt"
	"testing"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// BenchmarkTrace measures per-route path resolution: path selection and
// the per-hop closed-form walk on FT(16,2).
func BenchmarkTrace(b *testing.B) {
	tree := topology.MustNew(16, 2)
	for _, s := range Schemes() {
		b.Run(s.Name(), func(b *testing.B) {
			n := tree.Nodes()
			for i := 0; i < b.N; i++ {
				src := topology.NodeID(i % n)
				dst := topology.NodeID((i*7 + 1) % n)
				if src == dst {
					dst = (dst + 1) % topology.NodeID(n)
				}
				if _, err := Trace(tree, s, src, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRepairIncremental measures the steady-state control-plane repair
// path: a persistent RepairState absorbing one link failure and its revival
// per iteration. Work is proportional to the dirtied switches' candidate
// entries (via the subnet's port-to-LIDs reverse index), not to the LID
// space — compare the full scan of RepairSubnet.
func BenchmarkRepairIncremental(b *testing.B) {
	for _, net := range [][2]int{{8, 3}, {16, 2}, {32, 2}} {
		m, n := net[0], net[1]
		b.Run(fmt.Sprintf("%d-port_%d-tree", m, n), func(b *testing.B) {
			sn := configured(b, m, n, NewMLID())
			tree := sn.Tree
			st := NewRepairState(sn)
			leaf, _ := tree.NodeAttachment(0)
			down := [][2]int32{{int32(leaf), int32(tree.H())}}
			fs := NewFaultSet()
			fs.FailLink(tree, leaf, tree.H())
			none := NewFaultSet()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.RepairIncremental(fs, st.DirtySwitches(nil, down)); err != nil {
					b.Fatal(err)
				}
				if _, err := st.RepairIncremental(none, st.DirtySwitches(down, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
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
		sn := configured(b, m, n, NewMLID())
		tree := sn.Tree
		// Eight links on distinct leaves, failed cumulatively, then all
		// revived: the dead-set views one episode steps through.
		links := make([][2]int32, 8)
		stride := tree.Nodes() / 8
		for i := range links {
			leaf, _ := tree.NodeAttachment(topology.NodeID(i * stride))
			links[i] = [2]int32{int32(leaf), int32(tree.H())}
		}
		views := make([][][2]int32, 0, len(links)+1)
		for i := 1; i <= len(links); i++ {
			views = append(views, links[:i])
		}
		views = append(views, nil)
		faultsOf := func(view [][2]int32) *FaultSet {
			fs := NewFaultSet()
			for _, e := range view {
				fs.FailLink(tree, topology.SwitchID(e[0]), int(e[1]))
			}
			return fs
		}
		name := fmt.Sprintf("%d-port_%d-tree", m, n)
		b.Run(name+"/incremental", func(b *testing.B) {
			st := NewRepairState(sn)
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
				shadow := make([]*ib.LFT, len(sn.LFTs))
				copy(shadow, sn.LFTs)
				for _, view := range views {
					work := &ib.Subnet{Tree: sn.Tree, Engine: sn.Engine, Endports: sn.Endports,
						LFTs: make([]*ib.LFT, len(sn.LFTs))}
					for s, l := range sn.LFTs {
						work.LFTs[s] = l.Clone()
					}
					if _, _, err := RepairSubnet(work, faultsOf(view)); err != nil {
						b.Fatal(err)
					}
					for s, l := range work.LFTs {
						old := shadow[s]
						for lid := 1; lid < l.Size(); lid++ {
							if old.Port(ib.LID(lid)) != l.Port(ib.LID(lid)) {
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
