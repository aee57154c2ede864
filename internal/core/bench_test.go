package core

import (
	"fmt"
	"testing"
)

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
